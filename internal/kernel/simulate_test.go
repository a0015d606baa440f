package kernel

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/circuit"
	"repro/internal/mps"
)

// workloadShapes are the four benchmark workloads' circuits (bench/
// workloads.go): train_deep, train_wide, serve_fresh and serve_hot.
var workloadShapes = []struct {
	name string
	a    circuit.Ansatz
	rows int
}{
	{"train_deep", circuit.Ansatz{Qubits: 10, Layers: 2, Distance: 4, Gamma: 1.0}, 24},
	{"train_wide", circuit.Ansatz{Qubits: 64, Layers: 2, Distance: 1, Gamma: 0.1}, 32},
	{"serve_fresh", circuit.Ansatz{Qubits: 16, Layers: 2, Distance: 2, Gamma: 0.5}, 32},
	{"serve_hot", circuit.Ansatz{Qubits: 64, Layers: 2, Distance: 1, Gamma: 0.1}, 16},
}

// uncompiledState is the simulation path compiled programs replaced, kept
// as the oracle: build and route the row's circuit, run it on a fresh
// |0…0⟩, then trim each site's buffer on its own.
func uncompiledState(t *testing.T, a circuit.Ansatz, x []float64) *mps.MPS {
	t.Helper()
	logical, err := a.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	st := mps.NewZeroState(a.Qubits, mps.Config{})
	if err := st.ApplyCircuit(circuit.Route(logical)); err != nil {
		t.Fatal(err)
	}
	for _, s := range st.Sites {
		s.Data = slices.Clone(s.Data)
	}
	return st
}

// TestStatesMatchUncompiledPath pins the compiled, scratch-state path to
// the uncompiled one on the four workload shapes (d = 1, 2 and 4): every
// state serialises to the same bytes (centre, truncation error, shapes and
// every payload bit), carries the same gate count, and the Grams are ==.
func TestStatesMatchUncompiledPath(t *testing.T) {
	for _, ws := range workloadShapes {
		t.Run(ws.name, func(t *testing.T) {
			rows := ws.rows
			if testing.Short() {
				rows = 4 // the -race run: 24 train_deep rows alone take ~40 s there
			}
			X := testData(rand.New(rand.NewSource(int64(ws.a.Qubits*ws.a.Distance))), rows, ws.a.Qubits)
			want := make([]*mps.MPS, len(X))
			for i, x := range X {
				want[i] = uncompiledState(t, ws.a, x)
			}
			q := &Quantum{Ansatz: ws.a, Workers: 2}
			got, err := q.States(X)
			if err != nil {
				t.Fatal(err)
			}
			for i := range X {
				gb, _ := got[i].MarshalBinary()
				wb, _ := want[i].MarshalBinary()
				if !bytes.Equal(gb, wb) || got[i].GatesApplied() != want[i].GatesApplied() {
					t.Fatalf("row %d: state differs from the uncompiled path", i)
				}
			}
			gram, err := q.Gram(X)
			if err != nil {
				t.Fatal(err)
			}
			wantGram := GramFromStates(want, 1)
			for i := range gram {
				if !slices.Equal(gram[i], wantGram[i]) {
					t.Fatalf("Gram row %d differs from the uncompiled path", i)
				}
			}
		})
	}
}

// TestQuantumRecompilesReassignedAnsatz: a Quantum whose Ansatz field is
// reassigned simulates the new ansatz, never the program compiled before.
func TestQuantumRecompilesReassignedAnsatz(t *testing.T) {
	x := testData(rand.New(rand.NewSource(5)), 1, 6)[0]
	q := defaultQuantum(6)
	if _, err := q.State(x); err != nil {
		t.Fatal(err)
	}
	q.Ansatz.Distance, q.Ansatz.Gamma = 3, 0.9
	got, err := q.State(x)
	if err != nil {
		t.Fatal(err)
	}
	want := uncompiledState(t, q.Ansatz, x)
	gb, _ := got.MarshalBinary()
	wb, _ := want.MarshalBinary()
	if !bytes.Equal(gb, wb) {
		t.Fatal("state after reassigning Ansatz is not the new ansatz's")
	}
	q.Ansatz.Layers = 0
	if _, err := q.State(x); err == nil {
		t.Fatal("an invalid reassigned ansatz must fail")
	}
}

// TestFinishedStateIsOneSlab: a simulated state's payloads are consecutive
// windows of one backing array, each capacity-clipped to its length.
func TestFinishedStateIsOneSlab(t *testing.T) {
	q := &Quantum{Ansatz: circuit.Ansatz{Qubits: 12, Layers: 2, Distance: 3, Gamma: 0.8}}
	st, err := q.State(testData(rand.New(rand.NewSource(6)), 1, 12)[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxBond() < 2 {
		t.Fatal("test state is a product state; pick an entangling row")
	}
	for i, s := range st.Sites {
		if cap(s.Data) != len(s.Data) || cap(s.Shape) != 3 {
			t.Fatalf("site %d: data cap %d len %d, shape cap %d", i, cap(s.Data), len(s.Data), cap(s.Shape))
		}
		if i == 0 {
			continue
		}
		prev := st.Sites[i-1].Data
		end := uintptr(unsafe.Pointer(unsafe.SliceData(prev))) + uintptr(len(prev))*unsafe.Sizeof(prev[0])
		if uintptr(unsafe.Pointer(unsafe.SliceData(s.Data))) != end {
			t.Fatalf("site %d does not follow site %d in one backing array", i, i-1)
		}
	}
}

// TestStatesAllocsPerRow: a warm worker materialises a 64-qubit d = 1 row
// in the allocations of its finished state alone — no circuit, routing,
// matrix or per-site scratch allocation per row.
func TestStatesAllocsPerRow(t *testing.T) {
	if testing.Short() {
		t.Skip("sync.Pool drops idle workspaces at random under -race, which the -short race run uses")
	}
	const rows = 64
	q := &Quantum{Ansatz: circuit.Ansatz{Qubits: 64, Layers: 2, Distance: 1, Gamma: 0.1}, Workers: 1}
	X := testData(rand.New(rand.NewSource(7)), rows, 64)
	if _, err := q.States(X); err != nil {
		t.Fatal(err)
	}
	perRow := testing.AllocsPerRun(5, func() {
		if _, err := q.States(X); err != nil {
			t.Fatal(err)
		}
	}) / rows
	if perRow > 8 {
		t.Fatalf("States made %.2f allocations per row, want ≤ 8", perRow)
	}
}

// BenchmarkStates measures state materialisation alone at the train_wide
// shape (64 qubits, d = 1, 64 rows per op): ns/op is the linear-cost stage,
// allocs/op what it leaves for the collector.
//
//	go test -run '^$' -bench States ./internal/kernel
func BenchmarkStates(b *testing.B) {
	q := &Quantum{Ansatz: circuit.Ansatz{Qubits: 64, Layers: 2, Distance: 1, Gamma: 0.1}}
	X := testData(rand.New(rand.NewSource(8)), 64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.States(X); err != nil {
			b.Fatal(err)
		}
	}
}
