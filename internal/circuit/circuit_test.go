package circuit

import (
	"math"
	"testing"

	"repro/internal/gates"
)

func TestNewPanicsOnZeroQubits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

func TestAppendValidGates(t *testing.T) {
	c := New(3)
	if err := c.Append(Gate{Name: "H", Qubits: []int{0}, Mat: gates.H()}); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(Gate{Name: "RXX", Qubits: []int{0, 2}, Mat: gates.RXX(0.5)}); err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 2 {
		t.Fatalf("gate count %d", len(c.Gates))
	}
}

func TestAppendRejectsBadGates(t *testing.T) {
	c := New(2)
	cases := []Gate{
		{Name: "H", Qubits: []int{2}, Mat: gates.H()},            // out of range
		{Name: "H", Qubits: []int{-1}, Mat: gates.H()},           // negative
		{Name: "H", Qubits: []int{0}, Mat: gates.SWAP()},         // 4×4 on one qubit
		{Name: "SWAP", Qubits: []int{0, 1}, Mat: gates.H()},      // 2×2 on two qubits
		{Name: "SWAP", Qubits: []int{1, 1}, Mat: gates.SWAP()},   // duplicate target
		{Name: "BIG", Qubits: []int{0, 1, 1}, Mat: gates.SWAP()}, // arity 3
		{Name: "SWAP", Qubits: []int{0, 5}, Mat: gates.SWAP()},   // out of range
	}
	for i, g := range cases {
		if err := c.Append(g); err == nil {
			t.Errorf("case %d: expected rejection of %v", i, g.Name)
		}
	}
}

func TestStatsCounts(t *testing.T) {
	c := New(4)
	c.MustAppend(Gate{Name: "H", Qubits: []int{0}, Mat: gates.H()})
	c.MustAppend(Gate{Name: "H", Qubits: []int{1}, Mat: gates.H()})
	c.MustAppend(Gate{Name: "RXX", Qubits: []int{0, 3}, Mat: gates.RXX(1)})
	c.MustAppend(Gate{Name: "SWAP", Qubits: []int{1, 2}, Mat: gates.SWAP()})
	s := c.Stats()
	if s.OneQubit != 2 || s.TwoQubit != 2 || s.Swaps != 1 || s.MaxRange != 3 || s.TotalGate != 4 {
		t.Fatalf("stats wrong: %+v", s)
	}
}

func TestStatsDepthParallelGates(t *testing.T) {
	c := New(4)
	// Two disjoint 2q gates → depth 1; then a gate overlapping both → depth 2.
	c.MustAppend(Gate{Name: "RXX", Qubits: []int{0, 1}, Mat: gates.RXX(1)})
	c.MustAppend(Gate{Name: "RXX", Qubits: []int{2, 3}, Mat: gates.RXX(1)})
	if d := c.Stats().Depth; d != 1 {
		t.Fatalf("disjoint gates should have depth 1, got %d", d)
	}
	c.MustAppend(Gate{Name: "RXX", Qubits: []int{1, 2}, Mat: gates.RXX(1)})
	if d := c.Stats().Depth; d != 2 {
		t.Fatalf("overlapping gate should raise depth to 2, got %d", d)
	}
}

func TestNearestNeighbourOnly(t *testing.T) {
	c := New(3)
	c.MustAppend(Gate{Name: "RXX", Qubits: []int{0, 1}, Mat: gates.RXX(1)})
	if !c.NearestNeighbourOnly() {
		t.Fatal("adjacent gate flagged as long-range")
	}
	c.MustAppend(Gate{Name: "RXX", Qubits: []int{0, 2}, Mat: gates.RXX(1)})
	if c.NearestNeighbourOnly() {
		t.Fatal("long-range gate not detected")
	}
}

func TestAnsatzValidate(t *testing.T) {
	good := Ansatz{Qubits: 5, Layers: 2, Distance: 2, Gamma: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Ansatz{
		{Qubits: 0, Layers: 1, Distance: 1, Gamma: 1},
		{Qubits: 3, Layers: 0, Distance: 1, Gamma: 1},
		{Qubits: 3, Layers: 1, Distance: 0, Gamma: 1},
		{Qubits: 3, Layers: 1, Distance: 3, Gamma: 1}, // d ≥ m
		{Qubits: 3, Layers: 1, Distance: 1, Gamma: 0},
		{Qubits: 3, Layers: 1, Distance: 1, Gamma: -0.5},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d: expected validation failure for %+v", i, a)
		}
	}
}

func TestAnsatzEdgesLinearChain(t *testing.T) {
	a := Ansatz{Qubits: 5, Layers: 1, Distance: 2, Gamma: 1}
	es := a.Edges()
	// d=1 edges: (0,1)(1,2)(2,3)(3,4); d=2: (0,2)(1,3)(2,4) → 7 total.
	if len(es) != 7 {
		t.Fatalf("edge count %d, want 7", len(es))
	}
	want := map[[2]int]bool{
		{0, 1}: true, {1, 2}: true, {2, 3}: true, {3, 4}: true,
		{0, 2}: true, {1, 3}: true, {2, 4}: true,
	}
	for _, e := range es {
		if !want[e] {
			t.Fatalf("unexpected edge %v", e)
		}
	}
}

func TestScheduledEdgesNoQubitConflicts(t *testing.T) {
	a := Ansatz{Qubits: 8, Layers: 1, Distance: 3, Gamma: 1}
	rounds := a.ScheduledEdges()
	total := 0
	for _, round := range rounds {
		used := map[int]bool{}
		for _, e := range round {
			if used[e[0]] || used[e[1]] {
				t.Fatalf("round reuses a qubit: %v", round)
			}
			used[e[0]], used[e[1]] = true, true
			total++
		}
	}
	if total != len(a.Edges()) {
		t.Fatalf("scheduled %d edges, want %d", total, len(a.Edges()))
	}
	// The paper argues ≈2d rounds suffice; allow a small constant slack for
	// the greedy scheduler.
	if len(rounds) > 2*a.Distance+2 {
		t.Fatalf("schedule used %d rounds for d=%d", len(rounds), a.Distance)
	}
}

func TestAnsatzBuildGateInventory(t *testing.T) {
	a := Ansatz{Qubits: 4, Layers: 2, Distance: 1, Gamma: 0.5}
	x := []float64{0.1, 0.5, 1.0, 1.9}
	c, err := a.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	// 4 H + per layer (4 RZ + 3 RXX) × 2 layers.
	if s.OneQubit != 4+2*4 {
		t.Fatalf("one-qubit count %d", s.OneQubit)
	}
	if s.TwoQubit != 2*3 {
		t.Fatalf("two-qubit count %d", s.TwoQubit)
	}
	if s.Swaps != 0 {
		t.Fatalf("d=1 ansatz should have no SWAPs, got %d", s.Swaps)
	}
	if !c.NearestNeighbourOnly() {
		t.Fatal("d=1 ansatz should already be nearest-neighbour")
	}
}

// TestBuildAndRouteSizeGatesExactly: both know their gate count up front and
// allocate the slice once — neither growing it nor over-reserving.
func TestBuildAndRouteSizeGatesExactly(t *testing.T) {
	for _, a := range []Ansatz{
		{Qubits: 4, Layers: 2, Distance: 1, Gamma: 0.5},
		{Qubits: 9, Layers: 3, Distance: 4, Gamma: 0.5},
	} {
		c, err := a.Build(make([]float64, a.Qubits))
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Gates) != cap(c.Gates) {
			t.Fatalf("d=%d: Build holds %d gates in capacity %d", a.Distance, len(c.Gates), cap(c.Gates))
		}
		if r := Route(c); len(r.Gates) != cap(r.Gates) {
			t.Fatalf("d=%d: Route holds %d gates in capacity %d", a.Distance, len(r.Gates), cap(r.Gates))
		}
	}
}

func TestAnsatzBuildRejectsBadInput(t *testing.T) {
	a := Ansatz{Qubits: 3, Layers: 1, Distance: 1, Gamma: 1}
	if _, err := a.Build([]float64{1, 2}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := a.Build([]float64{1, math.NaN(), 0}); err == nil {
		t.Fatal("expected NaN rejection")
	}
	if _, err := a.Build([]float64{1, math.Inf(1), 0}); err == nil {
		t.Fatal("expected Inf rejection")
	}
}

func TestAnsatzAngles(t *testing.T) {
	// With x=(1,1,...) the RXX coefficients vanish: (1−x_i)(1−x_j)=0, so all
	// RXX gates must be identity rotations.
	a := Ansatz{Qubits: 3, Layers: 1, Distance: 2, Gamma: 0.7}
	c, err := a.Build([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range c.Gates {
		if g.Name == "RXX" {
			if g.Mat.At(0, 3) != 0 || g.Mat.At(0, 0) != 1 {
				t.Fatal("RXX with zero coefficient should be identity")
			}
		}
	}
}

func TestRouteNearestNeighbour(t *testing.T) {
	a := Ansatz{Qubits: 6, Layers: 1, Distance: 3, Gamma: 0.8}
	x := []float64{0.2, 0.4, 0.6, 0.8, 1.2, 1.4}
	c, err := a.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	r := Route(c)
	if !r.NearestNeighbourOnly() {
		t.Fatal("routed circuit still has long-range gates")
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// SWAP bookkeeping: each RXX at range k costs 2(k−1) SWAPs.
	wantSwaps := RoutingOverhead(c)
	if got := r.Stats().Swaps; got != wantSwaps {
		t.Fatalf("router inserted %d SWAPs, accounting says %d", got, wantSwaps)
	}
}

func TestRoutingOverheadFormula(t *testing.T) {
	// A single gate at distance k costs 2(k−1) SWAPs (paper, section II-C).
	for k := 1; k <= 5; k++ {
		c := New(8)
		c.MustAppend(Gate{Name: "RXX", Qubits: []int{0, k}, Mat: gates.RXX(1)})
		if got, want := RoutingOverhead(c), 2*(k-1); got != want {
			t.Fatalf("k=%d: overhead %d, want %d", k, got, want)
		}
	}
}

func TestRoutePreservesOneQubitGates(t *testing.T) {
	c := New(3)
	c.MustAppend(Gate{Name: "H", Qubits: []int{1}, Mat: gates.H()})
	r := Route(c)
	if len(r.Gates) != 1 || r.Gates[0].Name != "H" {
		t.Fatal("route should pass through 1q gates untouched")
	}
}

func TestRouteFlippedQubitOrder(t *testing.T) {
	// A gate listed as (high, low) must still route and keep its orientation.
	c := New(4)
	c.MustAppend(Gate{Name: "CX", Qubits: []int{3, 0}, Mat: gates.CX()})
	r := Route(c)
	if !r.NearestNeighbourOnly() {
		t.Fatal("flipped gate not routed")
	}
	// The CX in the routed circuit must preserve control=first semantics:
	// find it and check its qubits are adjacent with control listed first.
	found := false
	for _, g := range r.Gates {
		if g.Name == "CX" {
			found = true
			d := g.Qubits[0] - g.Qubits[1]
			if d != 1 && d != -1 {
				t.Fatal("CX not adjacent after routing")
			}
		}
	}
	if !found {
		t.Fatal("CX disappeared during routing")
	}
}
