package mps

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/statevector"
)

func randomData(rng *rand.Rand, m int) []float64 {
	x := make([]float64, m)
	for i := range x {
		x[i] = rng.Float64() * 2
	}
	return x
}

func buildAnsatzMPS(t testing.TB, a circuit.Ansatz, x []float64, cfg Config) *MPS {
	t.Helper()
	c, err := a.BuildRouted(x)
	if err != nil {
		t.Fatal(err)
	}
	st := NewZeroState(a.Qubits, cfg)
	if err := st.ApplyCircuit(c); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestNewZeroState(t *testing.T) {
	m := NewZeroState(4, Config{})
	if m.MaxBond() != 1 {
		t.Fatalf("product state bond %d", m.MaxBond())
	}
	if math.Abs(m.Norm()-1) > 1e-12 {
		t.Fatalf("norm %v", m.Norm())
	}
	if a := m.Amplitude([]int{0, 0, 0, 0}); cmplx.Abs(a-1) > 1e-12 {
		t.Fatalf("⟨0000|ψ⟩ = %v", a)
	}
	if a := m.Amplitude([]int{1, 0, 0, 0}); cmplx.Abs(a) > 1e-12 {
		t.Fatalf("⟨1000|ψ⟩ = %v", a)
	}
}

func TestNewZeroStatePanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewZeroState(0, Config{})
}

func TestSingleQubitGate(t *testing.T) {
	m := NewZeroState(2, Config{})
	if err := m.ApplyGate(circuit.Gate{Name: "H", Qubits: []int{0}, Mat: gates.H()}); err != nil {
		t.Fatal(err)
	}
	s := 1 / math.Sqrt2
	if a := m.Amplitude([]int{0, 0}); math.Abs(real(a)-s) > 1e-12 {
		t.Fatalf("⟨00|ψ⟩ = %v", a)
	}
	if a := m.Amplitude([]int{1, 0}); math.Abs(real(a)-s) > 1e-12 {
		t.Fatalf("⟨10|ψ⟩ = %v", a)
	}
}

func TestBellState(t *testing.T) {
	m := NewZeroState(2, Config{})
	m.ApplyGate(circuit.Gate{Name: "H", Qubits: []int{0}, Mat: gates.H()})
	m.ApplyGate(circuit.Gate{Name: "CX", Qubits: []int{0, 1}, Mat: gates.CX()})
	s := 1 / math.Sqrt2
	if a := m.Amplitude([]int{0, 0}); math.Abs(real(a)-s) > 1e-10 {
		t.Fatalf("⟨00|bell⟩ = %v", a)
	}
	if a := m.Amplitude([]int{1, 1}); math.Abs(real(a)-s) > 1e-10 {
		t.Fatalf("⟨11|bell⟩ = %v", a)
	}
	if a := m.Amplitude([]int{0, 1}); cmplx.Abs(a) > 1e-10 {
		t.Fatalf("⟨01|bell⟩ = %v", a)
	}
	if m.MaxBond() != 2 {
		t.Fatalf("Bell state needs bond 2, got %d", m.MaxBond())
	}
}

func TestTwoQubitGateFlippedOrder(t *testing.T) {
	// CX with control=qubit1, target=qubit0 — listed as (1,0).
	m := NewZeroState(2, Config{})
	m.ApplyGate(circuit.Gate{Name: "X", Qubits: []int{1}, Mat: gates.X()})
	m.ApplyGate(circuit.Gate{Name: "CX", Qubits: []int{1, 0}, Mat: gates.CX()})
	if a := m.Amplitude([]int{1, 1}); cmplx.Abs(a-1) > 1e-10 {
		t.Fatalf("CX(1,0)|01⟩: got amplitude %v for |11⟩", a)
	}
}

func TestNonAdjacentGateRejected(t *testing.T) {
	m := NewZeroState(3, Config{})
	err := m.ApplyGate(circuit.Gate{Name: "CX", Qubits: []int{0, 2}, Mat: gates.CX()})
	if err == nil {
		t.Fatal("expected rejection of non-adjacent two-qubit gate")
	}
}

func TestApplyCircuitWrongWidth(t *testing.T) {
	m := NewZeroState(3, Config{})
	c := circuit.New(4)
	if err := m.ApplyCircuit(c); err == nil {
		t.Fatal("expected width mismatch error")
	}
}

// Cross-validation against the statevector oracle: the MPS must produce the
// same state for every ansatz configuration that fits in a dense simulation.
func TestMPSMatchesStatevector(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cases := []circuit.Ansatz{
		{Qubits: 2, Layers: 1, Distance: 1, Gamma: 0.5},
		{Qubits: 4, Layers: 2, Distance: 1, Gamma: 1.0},
		{Qubits: 5, Layers: 2, Distance: 2, Gamma: 0.5},
		{Qubits: 6, Layers: 1, Distance: 3, Gamma: 0.8},
		{Qubits: 7, Layers: 2, Distance: 4, Gamma: 0.3},
		{Qubits: 8, Layers: 3, Distance: 2, Gamma: 1.0},
	}
	for _, a := range cases {
		x := randomData(rng, a.Qubits)
		logical, err := a.Build(x)
		if err != nil {
			t.Fatal(err)
		}
		sv := statevector.Run(logical)

		st := buildAnsatzMPS(t, a, x, Config{})
		amps := st.ToStateVector()
		for i, want := range sv.Amp {
			if cmplx.Abs(amps[i]-want) > 1e-8 {
				t.Fatalf("ansatz %+v: amplitude %d differs: mps %v, sv %v", a, i, amps[i], want)
			}
		}
	}
}

func TestInnerMatchesStatevector(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := circuit.Ansatz{Qubits: 6, Layers: 2, Distance: 2, Gamma: 0.7}
	x1, x2 := randomData(rng, 6), randomData(rng, 6)

	m1 := buildAnsatzMPS(t, a, x1, Config{})
	m2 := buildAnsatzMPS(t, a, x2, Config{})
	got := Inner(m1, m2)

	c1, _ := a.Build(x1)
	c2, _ := a.Build(x2)
	want := statevector.Inner(statevector.Run(c1), statevector.Run(c2))
	if cmplx.Abs(got-want) > 1e-8 {
		t.Fatalf("inner product mismatch: mps %v, sv %v", got, want)
	}
}

func TestOverlapSelfIsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := circuit.Ansatz{Qubits: 5, Layers: 2, Distance: 1, Gamma: 1}
	m := buildAnsatzMPS(t, a, randomData(rng, 5), Config{})
	if ov := Overlap(m, m); math.Abs(ov-1) > 1e-9 {
		t.Fatalf("|⟨ψ|ψ⟩|² = %v", ov)
	}
}

func TestNormPreservedThroughCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := circuit.Ansatz{Qubits: 10, Layers: 2, Distance: 3, Gamma: 0.5}
	m := buildAnsatzMPS(t, a, randomData(rng, 10), Config{})
	if math.Abs(m.Norm()-1) > 1e-8 {
		t.Fatalf("norm %v after circuit", m.Norm())
	}
	if m.TruncationError > 1e-12 {
		t.Fatalf("truncation error unexpectedly large: %v", m.TruncationError)
	}
}

func TestCanonicalInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := circuit.Ansatz{Qubits: 6, Layers: 2, Distance: 2, Gamma: 0.8}
	m := buildAnsatzMPS(t, a, randomData(rng, 6), Config{})
	if err := m.CheckCanonical(1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestTruncationBudgetRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := circuit.Ansatz{Qubits: 8, Layers: 2, Distance: 3, Gamma: 0.5}
	x := randomData(rng, 8)
	// Tight budget: error per truncation ≤ 1e-4; total bounded by count.
	cfg := Config{TruncationBudget: 1e-4}
	m := buildAnsatzMPS(t, a, x, cfg)
	c, _ := a.BuildRouted(x)
	maxTotal := 1e-4 * float64(len(c.Gates))
	if m.TruncationError > maxTotal {
		t.Fatalf("accumulated error %v exceeds per-gate budget × gates %v", m.TruncationError, maxTotal)
	}
	// Fidelity within twice the discarded weight ε: the norm deficit alone
	// is ε, so 1 − F reaches ≈ 2ε and "F ≥ 1 − ε" does not hold.
	exact := buildAnsatzMPS(t, a, x, Config{TruncationBudget: -1})
	ov := Overlap(exact, m)
	if ov < 1-2*m.TruncationError-1e-9 {
		t.Fatalf("fidelity %v below bound 1−2ε = %v", ov, 1-2*m.TruncationError)
	}
}

func TestMaxBondCap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := circuit.Ansatz{Qubits: 8, Layers: 2, Distance: 3, Gamma: 0.5}
	x := randomData(rng, 8)
	m := buildAnsatzMPS(t, a, x, Config{MaxBond: 2})
	if m.MaxBond() > 2 {
		t.Fatalf("bond cap violated: %d", m.MaxBond())
	}
	if m.TruncationError == 0 {
		t.Fatal("capping bonds on an entangling circuit must record error")
	}
}

func TestDisableTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	a := circuit.Ansatz{Qubits: 6, Layers: 1, Distance: 2, Gamma: 0.5}
	m := buildAnsatzMPS(t, a, randomData(rng, 6), Config{TruncationBudget: -1})
	if m.TruncationError != 0 {
		t.Fatalf("truncation disabled but error %v recorded", m.TruncationError)
	}
}

func TestMemoryLedger(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	a := circuit.Ansatz{Qubits: 5, Layers: 1, Distance: 2, Gamma: 0.8}
	x := randomData(rng, 5)
	c, _ := a.BuildRouted(x)
	m := NewZeroState(5, Config{RecordMemory: true})
	if err := m.ApplyCircuit(c); err != nil {
		t.Fatal(err)
	}
	if len(m.Ledger) != len(c.Gates) {
		t.Fatalf("ledger has %d samples for %d gates", len(m.Ledger), len(c.Gates))
	}
	for i, s := range m.Ledger {
		if s.GateIndex != i {
			t.Fatalf("ledger sample %d has index %d", i, s.GateIndex)
		}
		if s.Bytes < 5*2*16 {
			t.Fatalf("implausible memory sample %+v", s)
		}
		if s.MaxBond < 1 {
			t.Fatalf("bad bond in sample %+v", s)
		}
	}
	// Memory must equal the final live footprint at the last sample.
	last := m.Ledger[len(m.Ledger)-1]
	if last.Bytes != m.MemoryBytes() {
		t.Fatalf("last ledger bytes %d != live %d", last.Bytes, m.MemoryBytes())
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewZeroState(3, Config{})
	m.ApplyGate(circuit.Gate{Name: "H", Qubits: []int{0}, Mat: gates.H()})
	c := m.Clone()
	c.ApplyGate(circuit.Gate{Name: "Z", Qubits: []int{0}, Mat: gates.Z()}) // Z|+⟩ = |−⟩
	if cmplx.Abs(Inner(m, m)-1) > 1e-10 {
		t.Fatal("original state corrupted by clone mutation")
	}
	if Overlap(m, c) > 1-1e-6 {
		t.Fatal("clone should have diverged")
	}
}

func TestSerialParallelBackendsAgree(t *testing.T) {
	// The paper's Table I: both backends run the same algorithm, so their
	// states must agree — here bit for bit, on every site tensor. At 14
	// qubits, distance 4 and γ = 1 the bond reaches χ = 78, so the theta
	// products and the truncation SVD's Gram, A·V and Householder stages
	// cross the parallel thresholds and the parallel kernels really run.
	rng := rand.New(rand.NewSource(77))
	a := circuit.Ansatz{Qubits: 14, Layers: 2, Distance: 4, Gamma: 1}
	x := randomData(rng, 14)
	ser := buildAnsatzMPS(t, a, x, Config{Backend: backend.NewSerial()})
	par := buildAnsatzMPS(t, a, x, Config{Backend: backend.NewParallelWithOverhead(4, 0)})
	if ser.MaxBond() != par.MaxBond() {
		t.Fatalf("bond dimensions differ: serial %d, parallel %d", ser.MaxBond(), par.MaxBond())
	}
	if ser.MaxBond() < 64 {
		t.Fatalf("max bond %d: too small to reach the parallel kernels", ser.MaxBond())
	}
	if ser.TruncationError != par.TruncationError {
		t.Fatalf("truncation error differs: serial %v, parallel %v", ser.TruncationError, par.TruncationError)
	}
	for i := range ser.Sites {
		st, pt := ser.Sites[i], par.Sites[i]
		if !slices.Equal(st.Shape, pt.Shape) {
			t.Fatalf("site %d shape: serial %v, parallel %v", i, st.Shape, pt.Shape)
		}
		for k := range st.Data {
			if st.Data[k] != pt.Data[k] {
				t.Fatalf("site %d entry %d: serial %v, parallel %v", i, k, st.Data[k], pt.Data[k])
			}
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := circuit.Ansatz{Qubits: 6, Layers: 2, Distance: 2, Gamma: 0.9}
	m := buildAnsatzMPS(t, a, randomData(rng, 6), Config{})
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(blob)) != m.MarshaledSize() {
		t.Fatalf("MarshaledSize %d != actual %d", m.MarshaledSize(), len(blob))
	}
	back, err := UnmarshalBinary(blob, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ov := Overlap(m, back); math.Abs(ov-1) > 1e-10 {
		t.Fatalf("round-trip state differs: overlap %v", ov)
	}
	if back.TruncationError != m.TruncationError {
		t.Fatal("truncation error not preserved")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		make([]byte, 64), // zero magic
	}
	for i, blob := range cases {
		if _, err := UnmarshalBinary(blob, Config{}); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Corrupt a valid payload's interior.
	m := NewZeroState(3, Config{})
	blob, _ := m.MarshalBinary()
	blob = blob[:len(blob)-8]
	if _, err := UnmarshalBinary(blob, Config{}); err == nil {
		t.Error("expected error for truncated payload")
	}
}

// TestUnmarshalBoundsAllocationByInput: a bond dimension is the sender's
// word. A 28-byte frame announcing a 2³¹−1 right bond used to reach
// make([]complex128, ~2³²) before the first payload read failed.
func TestUnmarshalBoundsAllocationByInput(t *testing.T) {
	blob, _ := NewZeroState(2, Config{}).MarshalBinary()
	blob = blob[:headerSize+8]
	binary.LittleEndian.PutUint32(blob[headerSize+4:], math.MaxInt32)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := UnmarshalBinary(blob, Config{})
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting a %d-byte frame allocated %d bytes", len(blob), grew)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "payload") {
		t.Fatalf("want a truncated-payload error, got %v", err)
	}
}

// FuzzUnmarshalBinary: the decoder reads frames off a socket and model files
// off disk, so on arbitrary bytes it must return an error or a state — never
// panic — and whatever it accepts must re-encode to the same bytes. Every
// proper prefix of a valid frame is rejected.
func FuzzUnmarshalBinary(f *testing.F) {
	rng := rand.New(rand.NewSource(47))
	for _, a := range []circuit.Ansatz{
		{Qubits: 12, Layers: 2, Distance: 1, Gamma: 0.1}, // bond 2
		{Qubits: 10, Layers: 2, Distance: 4, Gamma: 1.0}, // bond 32
	} {
		blob, err := buildAnsatzMPS(f, a, randomData(rng, a.Qubits), Config{}).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		for cut := range blob {
			if _, err := UnmarshalBinary(blob[:cut], Config{}); err == nil {
				f.Fatalf("accepted a %d-byte prefix of a %d-byte frame", cut, len(blob))
			}
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalBinary(data, Config{})
		if err != nil {
			return
		}
		back, err := m.MarshalBinary()
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("accepted %d bytes but re-encoded to %d (err %v)", len(data), len(back), err)
		}
	})
}

// TestUnmarshalOneSlab: a decoded state costs five allocations however many
// sites it has (the MPS, its Sites slice, the tensor-header and shape blocks,
// one payload slab), against 4·N+2 with a fresh header, shape, shape argument
// and payload per site. Every site is a cap-limited window of the slab, so a gate that grows
// a site reallocates it: the sites it does not act on keep their payloads.
func TestUnmarshalOneSlab(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, c := range []struct {
		name  string
		a     circuit.Ansatz
		grows bool // χ=32 is already the exact maximum at 10 qubits
	}{
		{"bond2_64q", circuit.Ansatz{Qubits: 64, Layers: 2, Distance: 1, Gamma: 0.1}, true},
		{"bond32_10q", circuit.Ansatz{Qubits: 10, Layers: 2, Distance: 4, Gamma: 1.0}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			// The centre is moved mid-chain before encoding, where a gate
			// can grow the bond; the decoded state keeps it there.
			st := buildAnsatzMPS(t, c.a, randomData(rng, c.a.Qubits), Config{})
			st.moveCenterTo(st.N/2 - 1)
			blob, err := st.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			// A Config without a backend shares the process's serial
			// backend, so it adds no allocation per state.
			if allocs := testing.AllocsPerRun(20, func() {
				if _, err := UnmarshalBinary(blob, Config{}); err != nil {
					t.Fatal(err)
				}
			}); allocs > 5 {
				t.Fatalf("decoding a %d-site state allocates %.0f times, want ≤ 5", c.a.Qubits, allocs)
			}

			// At the decoded centre the gate needs no centre move, so it
			// touches its two sites only.
			m, err := UnmarshalBinary(blob, Config{})
			if err != nil {
				t.Fatal(err)
			}
			before := make([][]complex128, m.N)
			for i, s := range m.Sites {
				if cap(s.Data) != len(s.Data) || cap(s.Shape) != 3 {
					t.Fatalf("site %d: cap(Data) %d for len %d, cap(Shape) %d", i, cap(s.Data), len(s.Data), cap(s.Shape))
				}
				before[i] = append([]complex128(nil), s.Data...)
			}
			q := m.center
			width := len(m.Sites[q].Data)
			if err := m.ApplyGate(circuit.Gate{Name: "SWAP", Qubits: []int{q, q + 1}, Mat: gates.SWAP()}); err != nil {
				t.Fatal(err)
			}
			if c.grows && len(m.Sites[q].Data) <= width {
				t.Fatalf("SWAP left site %d at %d entries: the growth this test is about did not happen", q, width)
			}
			for i, s := range m.Sites {
				if i == q || i == q+1 {
					continue
				}
				for j := range s.Data {
					if s.Data[j] != before[i][j] {
						t.Fatalf("a gate on sites %d,%d changed site %d entry %d", q, q+1, i, j)
					}
				}
			}
		})
	}
}

// Property: for random product-style circuits the kernel entry equals the
// statevector result; checked across random ansatz draws.
func TestPropertyKernelEntryMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mq := 2 + rng.Intn(5)
		d := 1 + rng.Intn(mq-1)
		a := circuit.Ansatz{Qubits: mq, Layers: 1 + rng.Intn(2), Distance: d, Gamma: 0.2 + rng.Float64()}
		x1, x2 := randomData(rng, mq), randomData(rng, mq)
		c1, err1 := a.Build(x1)
		c2, err2 := a.Build(x2)
		if err1 != nil || err2 != nil {
			return false
		}
		svK := cmplx.Abs(statevector.Inner(statevector.Run(c1), statevector.Run(c2)))

		r1, _ := a.BuildRouted(x1)
		r2, _ := a.BuildRouted(x2)
		m1 := NewZeroState(mq, Config{})
		m2 := NewZeroState(mq, Config{})
		if m1.ApplyCircuit(r1) != nil || m2.ApplyCircuit(r2) != nil {
			return false
		}
		mpsK := cmplx.Abs(Inner(m1, m2))
		return math.Abs(svK*svK-mpsK*mpsK) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: truncation error accumulates monotonically and the recorded
// ledger bytes are consistent with bond dimensions.
func TestPropertyLedgerMonotoneError(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mq := 4 + rng.Intn(4)
		a := circuit.Ansatz{Qubits: mq, Layers: 2, Distance: 1 + rng.Intn(mq-1), Gamma: 0.5}
		x := randomData(rng, mq)
		c, err := a.BuildRouted(x)
		if err != nil {
			return false
		}
		m := NewZeroState(mq, Config{RecordMemory: true, MaxBond: 3})
		if m.ApplyCircuit(c) != nil {
			return false
		}
		prev := 0.0
		for _, s := range m.Ledger {
			if s.TruncErr < prev {
				return false
			}
			prev = s.TruncErr
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestInnerDifferentSizesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Inner(NewZeroState(2, Config{}), NewZeroState(3, Config{}))
}

func TestGatesAppliedCounter(t *testing.T) {
	m := NewZeroState(2, Config{})
	m.ApplyGate(circuit.Gate{Name: "H", Qubits: []int{0}, Mat: gates.H()})
	m.ApplyGate(circuit.Gate{Name: "H", Qubits: []int{1}, Mat: gates.H()})
	if m.GatesApplied() != 2 {
		t.Fatalf("GatesApplied = %d", m.GatesApplied())
	}
}
