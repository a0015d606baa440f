package circuit

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sameGates fails unless got and want hold the same gates: name, qubits and
// every matrix entry ==.
func sameGates(t *testing.T, got, want *Circuit) {
	t.Helper()
	if got.NumQubits != want.NumQubits || len(got.Gates) != len(want.Gates) {
		t.Fatalf("got %d qubits, %d gates; want %d, %d", got.NumQubits, len(got.Gates), want.NumQubits, len(want.Gates))
	}
	for i, g := range got.Gates {
		w := want.Gates[i]
		if g.Name != w.Name || !slices.Equal(g.Qubits, w.Qubits) {
			t.Fatalf("gate %d is %s%v, want %s%v", i, g.Name, g.Qubits, w.Name, w.Qubits)
		}
		if g.Mat.Rows != w.Mat.Rows || g.Mat.Cols != w.Mat.Cols || !slices.Equal(g.Mat.Data, w.Mat.Data) {
			t.Fatalf("gate %d (%s%v) matrix %v, want %v", i, g.Name, g.Qubits, g.Mat.Data, w.Mat.Data)
		}
	}
}

// TestBindMatchesRouteBuild pins the compiled program to the routed
// construction it replaces: for every width 1–16, distance 1–min(4, n−1),
// 1–3 layers and a random γ, Bind writes exactly the gates Route(Build(x))
// builds. One circuit is bound through every case, so re-carving for a new
// program and rebinding a warm circuit are both covered; BuildRouted (a
// fresh circuit) must agree too.
func TestBindMatchesRouteBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	var dst Circuit
	for n := 1; n <= 16; n++ {
		for d := 1; d <= max(1, min(4, n-1)); d++ {
			for layers := 1; layers <= 3; layers++ {
				a := Ansatz{Qubits: n, Layers: layers, Distance: d, Gamma: 0.05 + 2*rng.Float64()}
				p, err := Compile(a)
				if err != nil {
					t.Fatalf("%+v: %v", a, err)
				}
				for row := 0; row < 2; row++ {
					x := make([]float64, n)
					for i := range x {
						x[i] = 2 * rng.Float64()
					}
					logical, err := a.Build(x)
					if err != nil {
						t.Fatal(err)
					}
					want := Route(logical)
					if err := p.Bind(x, &dst); err != nil {
						t.Fatal(err)
					}
					sameGates(t, &dst, want)
					fresh, err := a.BuildRouted(x)
					if err != nil {
						t.Fatal(err)
					}
					sameGates(t, fresh, want)
				}
			}
		}
	}
}

// TestBindErrorsMatchBuild: a short row and a non-finite feature fail Bind
// with Build's own error text, and an invalid ansatz fails Compile with it.
func TestBindErrorsMatchBuild(t *testing.T) {
	a := Ansatz{Qubits: 5, Layers: 2, Distance: 2, Gamma: 0.7}
	p, err := Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]float64{
		{1, 1, 1},
		{1, 1, math.NaN(), 1, 1},
		{1, math.Inf(1), 1, 1, 1},
		{1, 1, 1, 1, math.Inf(-1)},
	}
	for i, x := range rows {
		_, want := a.Build(x)
		got := p.Bind(x, &Circuit{})
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("row %d: Bind error %v, Build error %v", i, got, want)
		}
	}
	for _, bad := range []Ansatz{{Qubits: 0, Layers: 1, Distance: 1, Gamma: 1}, {Qubits: 4, Layers: 1, Distance: 4, Gamma: 1}, {Qubits: 4, Layers: 1, Distance: 1, Gamma: 0}} {
		_, want := bad.Build(make([]float64, bad.Qubits))
		_, got := Compile(bad)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%+v: Compile error %v, Build error %v", bad, got, want)
		}
	}
}

// TestBindWarmAllocatesNothing: rebinding a circuit the same program bound
// before writes the new angles in place.
func TestBindWarmAllocatesNothing(t *testing.T) {
	a := Ansatz{Qubits: 64, Layers: 2, Distance: 1, Gamma: 0.1}
	p, err := Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Qubits)
	for i := range x {
		x[i] = float64(i%7) / 4
	}
	var dst Circuit
	if allocs := testing.AllocsPerRun(20, func() {
		if err := p.Bind(x, &dst); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm Bind made %v allocations, want 0", allocs)
	}
}

// TestBindSharesConstants: the H and SWAP matrices and the qubit lists are
// shared by every circuit a program binds, while the RZ/RXX matrices are
// each circuit's own — binding a second circuit must not change the first.
func TestBindSharesConstants(t *testing.T) {
	a := Ansatz{Qubits: 6, Layers: 1, Distance: 3, Gamma: 0.9}
	p, err := Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	x, y := []float64{0.1, 0.5, 0.9, 1.3, 1.7, 0.2}, []float64{1.9, 1.1, 0.3, 0.6, 1.4, 0.8}
	var c1, c2 Circuit
	if err := p.Bind(x, &c1); err != nil {
		t.Fatal(err)
	}
	if err := p.Bind(y, &c2); err != nil {
		t.Fatal(err)
	}
	want, err := a.BuildRouted(x)
	if err != nil {
		t.Fatal(err)
	}
	sameGates(t, &c1, want)
	for i := range c1.Gates {
		g1, g2 := c1.Gates[i], c2.Gates[i]
		shared := g1.Name == "H" || g1.Name == "SWAP"
		if (g1.Mat == g2.Mat) != shared {
			t.Fatalf("gate %d (%s): matrix shared = %v", i, g1.Name, g1.Mat == g2.Mat)
		}
		if &g1.Qubits[0] != &g2.Qubits[0] {
			t.Fatalf("gate %d (%s): qubit list not shared", i, g1.Name)
		}
	}
}
