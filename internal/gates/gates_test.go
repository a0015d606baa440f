package gates

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

func TestAllGatesUnitary(t *testing.T) {
	cases := map[string]*linalg.Matrix{
		"H": H(), "X": X(), "Y": Y(), "Z": Z(),
		"RZ(0.7)": RZ(0.7), "RX(1.3)": RX(1.3), "RXX(0.9)": RXX(0.9),
		"SWAP": SWAP(), "CX": CX(),
	}
	for name, g := range cases {
		if !g.IsUnitary(1e-12) {
			t.Errorf("%s is not unitary", name)
		}
	}
}

func TestHadamardSquaresToIdentity(t *testing.T) {
	hh := linalg.MatMul(H(), H())
	if !hh.EqualApprox(linalg.Identity(2), 1e-12) {
		t.Fatal("H² != I")
	}
}

func TestPauliAlgebra(t *testing.T) {
	// XY = iZ, YZ = iX, ZX = iY.
	if !linalg.MatMul(X(), Y()).EqualApprox(Z().Clone().Scale(1i), 1e-12) {
		t.Fatal("XY != iZ")
	}
	if !linalg.MatMul(Y(), Z()).EqualApprox(X().Clone().Scale(1i), 1e-12) {
		t.Fatal("YZ != iX")
	}
	if !linalg.MatMul(Z(), X()).EqualApprox(Y().Clone().Scale(1i), 1e-12) {
		t.Fatal("ZX != iY")
	}
}

func TestRZAction(t *testing.T) {
	// RZ(θ)|0⟩ = e^{−iθ/2}|0⟩, RZ(θ)|1⟩ = e^{iθ/2}|1⟩.
	theta := 0.8
	rz := RZ(theta)
	if cmplx.Abs(rz.At(0, 0)-cmplx.Exp(complex(0, -theta/2))) > 1e-12 {
		t.Fatal("RZ |0⟩ phase wrong")
	}
	if cmplx.Abs(rz.At(1, 1)-cmplx.Exp(complex(0, theta/2))) > 1e-12 {
		t.Fatal("RZ |1⟩ phase wrong")
	}
	if rz.At(0, 1) != 0 || rz.At(1, 0) != 0 {
		t.Fatal("RZ must be diagonal")
	}
}

func TestRZZeroIsIdentity(t *testing.T) {
	if !RZ(0).EqualApprox(linalg.Identity(2), 1e-12) {
		t.Fatal("RZ(0) != I")
	}
}

func TestRXXZeroIsIdentity(t *testing.T) {
	if !RXX(0).EqualApprox(linalg.Identity(4), 1e-12) {
		t.Fatal("RXX(0) != I")
	}
}

func TestRXXPiIsMinusIXX(t *testing.T) {
	// RXX(π) = −i·X⊗X.
	want := Kron(X(), X()).Scale(-1i)
	if !RXX(math.Pi).EqualApprox(want, 1e-12) {
		t.Fatal("RXX(π) != −i·X⊗X")
	}
}

func TestRXXMatchesExponential(t *testing.T) {
	// Series check: RXX(θ) = cos(θ/2)I − i·sin(θ/2)·X⊗X.
	theta := 1.234
	xx := Kron(X(), X())
	want := linalg.Identity(4).Scale(complex(math.Cos(theta/2), 0)).
		Add(xx.Scale(complex(0, -math.Sin(theta/2))))
	if !RXX(theta).EqualApprox(want, 1e-12) {
		t.Fatal("RXX does not match its defining exponential series")
	}
}

func TestRXXCommute(t *testing.T) {
	// RXX gates commute with each other for any angles (shared X⊗X basis).
	a, b := RXX(0.3), RXX(1.1)
	if !linalg.MatMul(a, b).EqualApprox(linalg.MatMul(b, a), 1e-12) {
		t.Fatal("RXX gates should commute")
	}
}

func TestSWAPAction(t *testing.T) {
	s := SWAP()
	// SWAP|01⟩ = |10⟩ means column 1 has a 1 in row 2.
	if s.At(2, 1) != 1 || s.At(1, 2) != 1 || s.At(0, 0) != 1 || s.At(3, 3) != 1 {
		t.Fatal("SWAP permutation wrong")
	}
	if !linalg.MatMul(s, s).EqualApprox(linalg.Identity(4), 1e-12) {
		t.Fatal("SWAP² != I")
	}
}

func TestKronIdentity(t *testing.T) {
	k := Kron(linalg.Identity(2), linalg.Identity(3))
	if !k.EqualApprox(linalg.Identity(6), 1e-12) {
		t.Fatal("I⊗I != I")
	}
}

func TestKronKnown(t *testing.T) {
	a := linalg.FromSlice(2, 2, []complex128{1, 2, 3, 4})
	b := linalg.FromSlice(2, 2, []complex128{0, 1, 1, 0})
	k := Kron(a, b)
	if k.At(0, 1) != 1 || k.At(0, 3) != 2 || k.At(3, 2) != 4 {
		t.Fatalf("Kron entries wrong: %v", k)
	}
}

func TestOperatorSchmidtRank(t *testing.T) {
	cases := []struct {
		name string
		g    *linalg.Matrix
		want int
	}{
		{"RXX(0.9) has rank 2", RXX(0.9), 2},
		{"RXX(0) = I has rank 1", RXX(0), 1},
		{"SWAP has rank 4", SWAP(), 4},
		{"CX has rank 2", CX(), 2},
		{"H⊗Z has rank 1", Kron(H(), Z()), 1},
	}
	for _, c := range cases {
		if got := OperatorSchmidtRank(c.g, 1e-10); got != c.want {
			t.Errorf("%s: got %d", c.name, got)
		}
	}
}

func TestOperatorSchmidtRankPanicsOnWrongShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OperatorSchmidtRank(linalg.Identity(2), 1e-10)
}

// Property: RZ(a)·RZ(b) = RZ(a+b) — rotations about Z compose additively.
func TestPropertyRZAdditive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := rng.Float64()*4-2, rng.Float64()*4-2
		return linalg.MatMul(RZ(a), RZ(b)).EqualApprox(RZ(a+b), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: RXX(a)·RXX(b) = RXX(a+b).
func TestPropertyRXXAdditive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := rng.Float64()*4-2, rng.Float64()*4-2
		return linalg.MatMul(RXX(a), RXX(b)).EqualApprox(RXX(a+b), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: rotation gates are unitary for any angle.
func TestPropertyRotationsUnitary(t *testing.T) {
	f := func(theta float64) bool {
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			return true
		}
		theta = math.Mod(theta, 100)
		return RZ(theta).IsUnitary(1e-10) && RX(theta).IsUnitary(1e-10) && RXX(theta).IsUnitary(1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAdditionalGatesUnitary(t *testing.T) {
	for name, g := range map[string]*linalg.Matrix{
		"RY(0.9)": RY(0.9), "CZ": CZ(), "RZZ(1.2)": RZZ(1.2),
	} {
		if !g.IsUnitary(1e-12) {
			t.Errorf("%s not unitary", name)
		}
	}
}

func TestRYAction(t *testing.T) {
	// RY(π)|0⟩ = |1⟩ (up to sign convention: column 0 is (cos, sin)).
	ry := RY(math.Pi)
	if cmplx.Abs(ry.At(1, 0)-1) > 1e-12 || cmplx.Abs(ry.At(0, 0)) > 1e-12 {
		t.Fatalf("RY(π) column 0 wrong: %v", ry)
	}
}

func TestRZZMatchesExponential(t *testing.T) {
	theta := 0.77
	zz := Kron(Z(), Z())
	want := linalg.Identity(4).Scale(complex(math.Cos(theta/2), 0)).
		Add(zz.Scale(complex(0, -math.Sin(theta/2))))
	if !RZZ(theta).EqualApprox(want, 1e-12) {
		t.Fatal("RZZ does not match its exponential series")
	}
}

func TestCZSymmetricSchmidtRank(t *testing.T) {
	if got := OperatorSchmidtRank(CZ(), 1e-10); got != 2 {
		t.Fatalf("CZ operator-Schmidt rank %d, want 2", got)
	}
}
