package mps

import (
	"math/rand"
	"testing"

	"repro/internal/backend"
	"repro/internal/circuit"
)

// TestWorkspaceInnerMatchesInner: the workspace path and the allocating path
// contract identically, so results agree exactly across a spread of bond
// dimensions (χ grows with interaction distance).
func TestWorkspaceInnerMatchesInner(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w := NewWorkspace()
	for _, d := range []int{1, 2, 3} {
		a := circuit.Ansatz{Qubits: 8, Layers: 2, Distance: d, Gamma: 0.7}
		m1 := buildAnsatzMPS(t, a, randomData(rng, 8), Config{})
		m2 := buildAnsatzMPS(t, a, randomData(rng, 8), Config{})
		for _, pair := range [][2]*MPS{{m1, m2}, {m2, m1}, {m1, m1}} {
			want := Inner(pair[0], pair[1])
			if got := w.Inner(pair[0], pair[1]); got != want {
				t.Fatalf("d=%d: workspace inner %v differs from %v", d, got, want)
			}
			wantO := Overlap(pair[0], pair[1])
			if gotO := w.Overlap(pair[0], pair[1]); gotO != wantO {
				t.Fatalf("d=%d: workspace overlap %v differs from %v", d, gotO, wantO)
			}
		}
	}
}

// TestWorkspaceReusedAcrossShapes: a single workspace serves states of
// different qubit counts and bond dimensions back to back (buffers reshape
// per call), still agreeing with the allocating path.
func TestWorkspaceReusedAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	w := NewWorkspace()
	for _, q := range []int{4, 10, 6} {
		a := circuit.Ansatz{Qubits: q, Layers: 2, Distance: min(2, q-1), Gamma: 0.5}
		m1 := buildAnsatzMPS(t, a, randomData(rng, q), Config{})
		m2 := buildAnsatzMPS(t, a, randomData(rng, q), Config{})
		if got, want := w.Inner(m1, m2), Inner(m1, m2); got != want {
			t.Fatalf("qubits=%d: workspace inner %v differs from %v", q, got, want)
		}
	}
}

// TestWorkspaceHonoursParallelBackend: states simulated with the
// accelerator-role backend keep using it for overlaps (the Fig. 5 crossover
// choice survives the workspace fast path).
func TestWorkspaceHonoursParallelBackend(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	// The second ansatz gives pure bond-2 states: delegation must win over
	// the fixed-shape step.
	for _, a := range []circuit.Ansatz{
		{Qubits: 8, Layers: 2, Distance: 2, Gamma: 0.6},
		{Qubits: 8, Layers: 2, Distance: 1, Gamma: 0.1},
	} {
		be := backend.NewParallel(2)
		m1 := buildAnsatzMPS(t, a, randomData(rng, 8), Config{Backend: be})
		m2 := buildAnsatzMPS(t, a, randomData(rng, 8), Config{Backend: be})
		before := be.Stats().Snapshot().MatMulOps
		if got, want := NewWorkspace().Inner(m1, m2), Inner(m1, m2); got != want {
			t.Fatalf("χ=%d: workspace inner %v differs from %v under parallel backend", m1.MaxBond(), got, want)
		}
		if after := be.Stats().Snapshot().MatMulOps; after == before {
			t.Fatalf("χ=%d: workspace bypassed the configured parallel backend", m1.MaxBond())
		}
	}
}

func TestWorkspaceMismatchedWidthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched qubit counts")
		}
	}()
	NewWorkspace().Inner(NewZeroState(3, Config{}), NewZeroState(4, Config{}))
}

// TestWorkspaceZeroAllocs: once warmed, the workspace computes inner
// products without touching the heap — the zero-realloc property the O(N²)
// overlap stage relies on.
func TestWorkspaceZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, c := range []struct {
		a    circuit.Ansatz
		bond int
	}{
		{circuit.Ansatz{Qubits: 10, Layers: 2, Distance: 3, Gamma: 0.8}, 32}, // general step
		{circuit.Ansatz{Qubits: 10, Layers: 2, Distance: 1, Gamma: 0.1}, 2},  // fixed-shape step
	} {
		m1 := buildAnsatzMPS(t, c.a, randomData(rng, 10), Config{})
		m2 := buildAnsatzMPS(t, c.a, randomData(rng, 10), Config{})
		if m1.MaxBond() != c.bond || m2.MaxBond() != c.bond {
			t.Fatalf("states have χ=%d,%d, want %d", m1.MaxBond(), m2.MaxBond(), c.bond)
		}
		w := NewWorkspace()
		w.Overlap(m1, m2) // warm the buffers
		if n := testing.AllocsPerRun(50, func() { w.Overlap(m1, m2) }); n != 0 {
			t.Fatalf("χ=%d: warmed workspace allocates %.1f times per overlap", c.bond, n)
		}
	}
}

// chainFromBonds builds an (unnormalised) MPS with the given interior bond
// dimensions and random site tensors in which roughly one entry in four is an
// exact zero, so the general kernels' zero-operand skip is exercised.
func chainFromBonds(rng *rand.Rand, bonds []int) *MPS {
	n := len(bonds) + 1
	m := &MPS{N: n, cfg: Config{}.withDefaults(), Sites: make([]*Tensor, n)}
	for i := range m.Sites {
		l, r := 1, 1
		if i > 0 {
			l = bonds[i-1]
		}
		if i < n-1 {
			r = bonds[i]
		}
		data := make([]complex128, l*2*r)
		for j := range data {
			if rng.Intn(4) != 0 {
				data[j] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		m.Sites[i] = tensorFromData(data, l, 2, r)
	}
	return m
}

// TestWorkspaceInnerMixedBondChains: the fixed-shape bond-2 step is chosen
// site by site, so on chains that mix runs of bond 2 with bond-1 and bond-3
// sites — in bra and ket independently — it is entered and left mid-chain and
// must hand the environment over to the general step unchanged. Results are
// compared to mps.Inner with ==, not a tolerance.
func TestWorkspaceInnerMixedBondChains(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	w := NewWorkspace()
	draw := func(n int) []int {
		bonds := make([]int, n-1)
		for i := range bonds {
			bonds[i] = []int{1, 2, 2, 2, 2, 3}[rng.Intn(6)]
		}
		return bonds
	}
	check := func(a, b *MPS) {
		t.Helper()
		if got, want := w.Inner(a, b), Inner(a, b); got != want {
			t.Fatalf("N=%d: workspace inner %v differs from %v", a.N, got, want)
		}
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12) // includes N = 1 and N = 2
		check(chainFromBonds(rng, draw(n)), chainFromBonds(rng, draw(n)))
	}
	for n := 1; n <= 6; n++ { // pure bond 2: every interior site takes the fixed-shape step
		all2 := make([]int, n-1)
		for i := range all2 {
			all2[i] = 2
		}
		a, b := chainFromBonds(rng, all2), chainFromBonds(rng, all2)
		check(a, b)
		check(a, a)
	}
}

// TestWorkspaceInnerBasisStatesAtBond2: computational-basis product states
// carried at bond 2 (the second bond index is padding) have exactly-zero
// amplitudes almost everywhere. The general step skips zero operands and the
// fixed-shape one multiplies through; both must give exactly 1 or 0.
func TestWorkspaceInnerBasisStatesAtBond2(t *testing.T) {
	const n = 6
	basis := func(bits int) *MPS {
		m := &MPS{N: n, cfg: Config{}.withDefaults(), Sites: make([]*Tensor, n)}
		for i := range m.Sites {
			l, r := 2, 2
			if i == 0 {
				l = 1
			}
			if i == n-1 {
				r = 1
			}
			site := NewTensor(l, 2, r)
			site.Data[(bits>>i&1)*r] = 1 // [0, s, 0] = 1 for s = bit i
			m.Sites[i] = site
		}
		return m
	}
	w := NewWorkspace()
	for x := 0; x < 1<<n; x += 5 {
		for y := 0; y < 1<<n; y += 3 {
			a, b := basis(x), basis(y)
			want := complex(0, 0)
			if x == y {
				want = 1
			}
			if got := w.Inner(a, b); got != want || got != Inner(a, b) {
				t.Fatalf("⟨%06b|%06b⟩: workspace %v, allocating %v, want %v", x, y, got, Inner(a, b), want)
			}
		}
	}
}
