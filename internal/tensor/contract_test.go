package tensor

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

func TestContractMatricesEqualsMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomTensor(rng, 4, 5)
	b := randomTensor(rng, 5, 6)
	c := Contract(a, b, []int{1}, []int{0})
	want := linalg.MatMul(linalg.FromSlice(4, 5, a.Data), linalg.FromSlice(5, 6, b.Data))
	if !c.EqualApprox(FromData(want.Data, 4, 6), 1e-10) {
		t.Fatal("rank-2 contraction disagrees with MatMul")
	}
}

func TestContractEquation6(t *testing.T) {
	// The paper's equation (6): C_abxyz = Σ_s A_abs · B_sxyz.
	rng := rand.New(rand.NewSource(2))
	a := randomTensor(rng, 2, 3, 4)    // A[a][b][s]
	b := randomTensor(rng, 4, 2, 3, 2) // B[s][x][y][z]
	c := Contract(a, b, []int{2}, []int{0})
	wantShape := []int{2, 3, 2, 3, 2}
	for i, d := range wantShape {
		if c.Shape[i] != d {
			t.Fatalf("shape %v, want %v", c.Shape, wantShape)
		}
	}
	// Spot check a handful of entries against the definition.
	for trial := 0; trial < 20; trial++ {
		ai, bi := rng.Intn(2), rng.Intn(3)
		x, y, z := rng.Intn(2), rng.Intn(3), rng.Intn(2)
		var want complex128
		for s := 0; s < 4; s++ {
			want += a.At(ai, bi, s) * b.At(s, x, y, z)
		}
		if got := c.At(ai, bi, x, y, z); cmplx.Abs(got-want) > 1e-10 {
			t.Fatalf("entry (%d,%d,%d,%d,%d): got %v want %v", ai, bi, x, y, z, got, want)
		}
	}
}

func TestContractMultipleSharedBonds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomTensor(rng, 2, 3, 4)
	b := randomTensor(rng, 3, 4, 5)
	c := Contract(a, b, []int{1, 2}, []int{0, 1})
	if c.Shape[0] != 2 || c.Shape[1] != 5 {
		t.Fatalf("shape %v", c.Shape)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 5; j++ {
			var want complex128
			for p := 0; p < 3; p++ {
				for q := 0; q < 4; q++ {
					want += a.At(i, p, q) * b.At(p, q, j)
				}
			}
			if cmplx.Abs(c.At(i, j)-want) > 1e-10 {
				t.Fatalf("multi-bond contraction wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestContractToScalar(t *testing.T) {
	a := FromData([]complex128{1, 2}, 2)
	b := FromData([]complex128{3, 4}, 2)
	c := Contract(a, b, []int{0}, []int{0})
	if c.Rank() != 0 || c.Data[0] != 11 {
		t.Fatalf("scalar contraction wrong: %v", c)
	}
}

// TestOuterProduct: contracting no bonds is the outer (tensor) product, the
// result's bonds being a's followed by b's.
func TestOuterProduct(t *testing.T) {
	a := FromData([]complex128{1, 2}, 2)
	b := FromData([]complex128{10, 20, 30}, 3)
	c := Contract(a, b, nil, nil)
	if c.Rank() != 2 || c.Shape[0] != 2 || c.Shape[1] != 3 {
		t.Fatalf("outer shape %v", c.Shape)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if got, want := c.At(i, j), a.Data[i]*b.Data[j]; got != want {
				t.Fatalf("outer entry (%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestContractDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Contract(New(2, 3), New(4, 5), []int{1}, []int{0})
}

func TestContractAxisListMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Contract(New(2, 3), New(3, 2), []int{1, 0}, []int{0})
}

// Property: contraction is bilinear — Contract(αa, b) == α·Contract(a, b).
func TestPropertyContractLinear(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomTensor(rng, 2, 3)
		b := randomTensor(rng, 3, 2)
		alpha := complex(rng.NormFloat64(), rng.NormFloat64())
		lhs := Contract(a.Clone().Scale(alpha), b, []int{1}, []int{0})
		rhs := Contract(a, b, []int{1}, []int{0}).Scale(alpha)
		return lhs.EqualApprox(rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: ⟨a, a⟩ — conj(a) contracted with a over every axis — equals
// ‖a‖² and is real non-negative.
func TestPropertyInnerSelfNorm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomTensor(rng, 1+rng.Intn(4), 1+rng.Intn(4))
		ip := Contract(a.Conj(), a, []int{0, 1}, []int{0, 1}).Data[0]
		n := a.Norm()
		return math.Abs(imag(ip)) < 1e-10 && math.Abs(real(ip)-n*n) < 1e-9*(1+n*n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQRDecomposeIsometry(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tt := randomTensor(rng, 3, 2, 4)
	q, r := QRDecompose(tt, []int{0, 1})
	rec := Contract(q, r, []int{2}, []int{0})
	if !rec.EqualApprox(tt, 1e-9) {
		t.Fatal("QRDecompose does not reconstruct")
	}
	// Q matricized must be an isometry.
	qm := q.Matricize(0, 1)
	if !qm.IsUnitary(1e-9) {
		t.Fatal("Q is not an isometry")
	}
}

func TestLQDecomposeIsometry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tt := randomTensor(rng, 3, 8)
	l, q := LQDecompose(tt, []int{0})
	rec := Contract(l, q, []int{1}, []int{0})
	if !rec.EqualApprox(tt, 1e-9) {
		t.Fatal("LQDecompose does not reconstruct")
	}
	qm := q.Matricize(0)
	// Rows orthonormal ⇒ qm·qm† = I.
	if !qm.ConjTranspose().IsUnitary(1e-9) {
		t.Fatal("Q rows not orthonormal")
	}
}
