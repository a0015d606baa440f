package mps

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
)

// engineAnsatz is a mid-size feature map exercising every engine path:
// single-qubit runs (H then RZ per layer), reversed-order two-qubit gates
// (routing SWAPs) and centre moves in both directions.
var engineAnsatz = circuit.Ansatz{Qubits: 8, Layers: 2, Distance: 3, Gamma: 0.8}

// TestFusedEngineMatchesReference is the core equivalence property: the
// fused zero-realloc engine and the reference chain (generic contractions,
// plain Jacobi SVD, allocating canonicalisation; reference_test.go) must
// produce the same quantum state to tight tolerance — amplitudes, bond
// structure and truncation accounting.
func TestFusedEngineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randomData(rng, engineAnsatz.Qubits)
	c, err := engineAnsatz.BuildRouted(x)
	if err != nil {
		t.Fatal(err)
	}
	fast := NewZeroState(engineAnsatz.Qubits, Config{})
	if err := fast.ApplyCircuit(c); err != nil {
		t.Fatal(err)
	}
	ref := NewZeroState(engineAnsatz.Qubits, Config{})
	if err := applyReference(ref, c); err != nil {
		t.Fatal(err)
	}
	// Global-phase-insensitive state comparison: |⟨ref|fast⟩|² ≈ 1.
	ov := Overlap(ref, fast)
	if d := ov - 1; d > 1e-10 || d < -1e-10 {
		t.Fatalf("fused engine state deviates from reference: overlap %v", ov)
	}
	if fm, rm := fast.MaxBond(), ref.MaxBond(); fm > rm+1 || rm > fm+1 {
		t.Fatalf("bond dims diverged: fused χ=%d, reference χ=%d", fm, rm)
	}
	if err := fast.CheckCanonical(1e-9); err != nil {
		t.Fatalf("fused engine broke canonical form: %v", err)
	}
	if te := fast.TruncationError; te < 0 || te > 1e-10 {
		t.Fatalf("fused engine truncation error %v outside noiseless regime", te)
	}
}

// TestEngineFlippedGateMatchesReference pins the cached swapQubitOrderInto
// buffer: a two-qubit gate listed (high, low) must act identically on the
// engine and the reference chain, including when single-qubit gates were
// folded into it.
func TestEngineFlippedGateMatchesReference(t *testing.T) {
	build := func(apply func(*MPS, *circuit.Circuit) error) *MPS {
		m := NewZeroState(3, Config{})
		c := circuit.New(3)
		c.MustAppend(circuit.Gate{Name: "H", Qubits: []int{1}, Mat: gates.H()})
		c.MustAppend(circuit.Gate{Name: "RY", Qubits: []int{2}, Mat: gates.RY(0.4)})
		// Reversed qubit order: listed (high, low).
		c.MustAppend(circuit.Gate{Name: "CX", Qubits: []int{2, 1}, Mat: gates.CX()})
		c.MustAppend(circuit.Gate{Name: "RZ", Qubits: []int{1}, Mat: gates.RZ(0.9)})
		c.MustAppend(circuit.Gate{Name: "RXX", Qubits: []int{0, 1}, Mat: gates.RXX(1.1)})
		if err := apply(m, c); err != nil {
			t.Fatal(err)
		}
		return m
	}
	fast := build((*MPS).ApplyCircuit)
	ref := build(applyReference)
	for idx, want := range ref.ToStateVector() {
		got := fast.ToStateVector()[idx]
		if cmplx.Abs(got-want) > 1e-12 {
			t.Fatalf("amplitude %d: fused %v, reference %v", idx, got, want)
		}
	}
}

// TestApplyCircuitFusionMatchesPerGate: the gate-fused ApplyCircuit and a
// gate-by-gate ApplyGate loop are the same circuit, so the states must agree
// to rounding; the gates-applied counter must count logical gates on both.
// The routed ansatz ends on an RXX layer that absorbs every pending
// single-qubit gate, so the trailing-gates circuit is the input that reaches
// flushPending's apply: it ends on non-diagonal single-qubit gates (one a
// fused run) on qubits no later two-qubit gate touches.
func TestApplyCircuitFusionMatchesPerGate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randomData(rng, engineAnsatz.Qubits)
	routed, err := engineAnsatz.BuildRouted(x)
	if err != nil {
		t.Fatal(err)
	}
	trailing := circuit.New(4)
	for _, g := range []circuit.Gate{
		{Name: "H", Qubits: []int{0}, Mat: gates.H()},
		{Name: "H", Qubits: []int{1}, Mat: gates.H()},
		{Name: "RXX", Qubits: []int{0, 1}, Mat: gates.RXX(0.9)},
		{Name: "RX", Qubits: []int{2}, Mat: gates.RX(0.7)},
		{Name: "RXX", Qubits: []int{2, 1}, Mat: gates.RXX(0.4)},
		{Name: "H", Qubits: []int{0}, Mat: gates.H()},
		{Name: "RX", Qubits: []int{3}, Mat: gates.RX(1.1)},
		{Name: "RX", Qubits: []int{2}, Mat: gates.RX(0.3)},
		{Name: "H", Qubits: []int{2}, Mat: gates.H()},
	} {
		trailing.MustAppend(g)
	}
	for _, tc := range []struct {
		name string
		c    *circuit.Circuit
	}{
		{"routed-ansatz", routed},
		{"trailing-single-qubit-gates", trailing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.c.NumQubits
			fused := NewZeroState(n, Config{})
			if err := fused.ApplyCircuit(tc.c); err != nil {
				t.Fatal(err)
			}
			perGate := NewZeroState(n, Config{})
			for i, g := range tc.c.Gates {
				if err := perGate.ApplyGate(g); err != nil {
					t.Fatalf("gate %d: %v", i, err)
				}
			}
			if ov := Overlap(fused, perGate); ov < 1-1e-10 {
				t.Fatalf("fusion changed the state: overlap %v", ov)
			}
			if fused.GatesApplied() != len(tc.c.Gates) || perGate.GatesApplied() != len(tc.c.Gates) {
				t.Fatalf("gate counters diverged: fused %d, per-gate %d, circuit %d",
					fused.GatesApplied(), perGate.GatesApplied(), len(tc.c.Gates))
			}
		})
	}
}

// TestApply2ZeroAllocSteadyState is the tentpole's acceptance assertion:
// once the workspace and site buffers are warm, a two-qubit gate application
// (centre move + merge + fused gate + truncation SVD + split) performs zero
// heap allocations.
func TestApply2ZeroAllocSteadyState(t *testing.T) {
	m := NewZeroState(6, Config{})
	ws := NewSimWorkspace()
	m.AttachWorkspace(ws)
	g := circuit.Gate{Name: "RXX", Qubits: []int{2, 3}, Mat: gates.RXX(0.7)}
	g2 := circuit.Gate{Name: "RXX", Qubits: []int{3, 4}, Mat: gates.RXX(0.3)}
	// Warm up: let bonds and buffers reach steady state.
	for i := 0; i < 12; i++ {
		if err := m.ApplyGate(g); err != nil {
			t.Fatal(err)
		}
		if err := m.ApplyGate(g2); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := m.ApplyGate(g); err != nil {
			t.Fatal(err)
		}
		if err := m.ApplyGate(g2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state apply2 performed %v allocations per gate pair, want 0", allocs)
	}
}

// TestApply1ZeroAlloc: the in-place single-qubit path never touches the heap,
// warm or cold.
func TestApply1ZeroAlloc(t *testing.T) {
	m := NewZeroState(4, Config{})
	g := circuit.Gate{Name: "H", Qubits: []int{1}, Mat: gates.H()}
	allocs := testing.AllocsPerRun(50, func() {
		if err := m.ApplyGate(g); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("apply1 performed %v allocations, want 0", allocs)
	}
}

// TestWorkspaceSharedAcrossStates: one warmed workspace threaded through
// many state simulations (the kernel.States / dist usage pattern) must not
// leak state between simulations.
func TestWorkspaceSharedAcrossStates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ws := NewSimWorkspace()
	for trial := 0; trial < 4; trial++ {
		x := randomData(rng, engineAnsatz.Qubits)
		c, err := engineAnsatz.BuildRouted(x)
		if err != nil {
			t.Fatal(err)
		}
		shared := NewZeroState(engineAnsatz.Qubits, Config{})
		shared.AttachWorkspace(ws)
		if err := shared.ApplyCircuit(c); err != nil {
			t.Fatal(err)
		}
		shared.DetachWorkspace()
		fresh := NewZeroState(engineAnsatz.Qubits, Config{})
		if err := fresh.ApplyCircuit(c); err != nil {
			t.Fatal(err)
		}
		if ov := Overlap(shared, fresh); ov < 1-1e-12 {
			t.Fatalf("trial %d: shared-workspace state deviates, overlap %v", trial, ov)
		}
	}
}

// TestReadCloneDoesNotMutateOriginal: retained and cached states are shared
// between concurrent kernel evaluations, so every read the kernel and the
// model file make of a state (inner products, overlaps, encoding, amplitude
// and canonical checks) must leave it bit-identical, and so must gates —
// centre moves included — applied to a Clone of it. The clone keeps the
// centre, so its gates keep it in canonical form.
func TestReadCloneDoesNotMutateOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := buildAnsatzMPS(t, engineAnsatz, randomData(rng, engineAnsatz.Qubits), Config{})
	o := buildAnsatzMPS(t, engineAnsatz, randomData(rng, engineAnsatz.Qubits), Config{})
	before := make([][]complex128, m.N)
	shapes := make([][]int, m.N)
	for i, s := range m.Sites {
		before[i] = append([]complex128(nil), s.Data...)
		shapes[i] = append([]int(nil), s.Shape...)
	}
	centre, trunc := m.center, m.TruncationError

	_ = Inner(m, o)
	_ = Overlap(o, m)
	_ = NewWorkspace().Overlap(m, o)
	_ = m.Norm()
	_ = m.Amplitude(make([]int, m.N))
	_ = m.ToStateVector()
	if err := m.CheckCanonical(1e-9); err != nil {
		t.Fatal(err)
	}
	if _, err := m.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	cl := m.Clone()
	if cl.center != m.center {
		t.Fatalf("clone centre %d, original %d", cl.center, m.center)
	}
	for _, g := range []circuit.Gate{
		{Name: "RXX", Qubits: []int{0, 1}, Mat: gates.RXX(0.9)},
		{Name: "H", Qubits: []int{5}, Mat: gates.H()},
		{Name: "RXX", Qubits: []int{6, 5}, Mat: gates.RXX(0.4)},
	} {
		if err := cl.ApplyGate(g); err != nil {
			t.Fatal(err)
		}
	}
	if ov := Overlap(cl, m); ov > 1-1e-6 {
		t.Fatalf("clone did not diverge: overlap %v", ov)
	}
	if err := cl.CheckCanonical(1e-9); err != nil {
		t.Fatalf("gates on the clone: %v", err)
	}

	if m.center != centre || m.TruncationError != trunc {
		t.Fatalf("centre %d→%d, truncation error %v→%v", centre, m.center, trunc, m.TruncationError)
	}
	for i, s := range m.Sites {
		if len(s.Data) != len(before[i]) || len(s.Shape) != len(shapes[i]) {
			t.Fatalf("site %d resized by a read or a clone's gates", i)
		}
		for j := range s.Shape {
			if s.Shape[j] != shapes[i][j] {
				t.Fatalf("site %d reshaped: %v → %v", i, shapes[i], s.Shape)
			}
		}
		for j := range s.Data {
			if s.Data[j] != before[i][j] {
				t.Fatalf("site %d entry %d mutated by a read or a clone's gates", i, j)
			}
		}
	}
}

// TestCompactSitesExactCapacity: after compaction every site's backing
// array is exactly its payload (so byte-budgeted cache accounting via
// MemoryBytes matches retained heap), and the state is unchanged.
func TestCompactSitesExactCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := randomData(rng, engineAnsatz.Qubits)
	m := buildAnsatzMPS(t, engineAnsatz, x, Config{})
	ref := m.Clone()
	grown := false
	for _, s := range m.Sites {
		if cap(s.Data) > len(s.Data) {
			grown = true
		}
	}
	if !grown {
		t.Log("no site retained slack capacity; compaction still verified as a no-op")
	}
	m.CompactSites()
	for i, s := range m.Sites {
		if cap(s.Data) != len(s.Data) {
			t.Fatalf("site %d: cap %d != len %d after CompactSites", i, cap(s.Data), len(s.Data))
		}
	}
	if ov := Overlap(m, ref); ov < 1-1e-12 {
		t.Fatalf("CompactSites changed the state: overlap %v", ov)
	}
}
