package linalg

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randomHermitian builds H = A + A† which is Hermitian by construction.
func randomHermitian(rng *rand.Rand, n int) *Matrix {
	a := Random(rng, n, n)
	return a.Add(a.ConjTranspose())
}

func TestEigHermitianDiagonal(t *testing.T) {
	a := FromSlice(3, 3, []complex128{5, 0, 0, 0, -1, 0, 0, 0, 2})
	res, err := EigHermitian(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 2, -1}
	for i, v := range want {
		if math.Abs(res.Values[i]-v) > 1e-10 {
			t.Fatalf("eigenvalues %v, want %v", res.Values, want)
		}
	}
}

func TestEigHermitianKnown2x2(t *testing.T) {
	// [[2, 1+1i],[1-1i, 3]] has eigenvalues (5±√(1+8))/2 = (5±3)/2 = 4, 1.
	a := FromSlice(2, 2, []complex128{2, 1 + 1i, 1 - 1i, 3})
	res, err := EigHermitian(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Values[0]-4) > 1e-10 || math.Abs(res.Values[1]-1) > 1e-10 {
		t.Fatalf("eigenvalues %v, want [4 1]", res.Values)
	}
}

func TestEigHermitianReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 5, 10, 16} {
		a := randomHermitian(rng, n)
		res, err := EigHermitian(a)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Vectors.IsUnitary(1e-9) {
			t.Fatalf("n=%d: eigenvectors not orthonormal", n)
		}
		// Rebuild V Λ V†.
		vl := res.Vectors.Clone()
		for j, lam := range res.Values {
			for i := 0; i < n; i++ {
				vl.Data[i*n+j] *= complex(lam, 0)
			}
		}
		rec := MatMul(vl, res.Vectors.ConjTranspose())
		if d := rec.Sub(a).FrobeniusNorm(); d > 1e-8*(1+a.FrobeniusNorm()) {
			t.Fatalf("n=%d: reconstruction error %.3g", n, d)
		}
	}
}

func TestEigHermitianRejectsNonHermitian(t *testing.T) {
	a := FromSlice(2, 2, []complex128{1, 2, 3, 4})
	if _, err := EigHermitian(a); err == nil {
		t.Fatal("expected error for non-Hermitian input")
	}
}

// TestEigHermitianRejectsNonFinite: a NaN or Inf entry is an error naming
// its position, never NaN eigenvalues with a nil error.
func TestEigHermitianRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		a    *Matrix
		pos  string
	}{
		{"NaN off the diagonal", FromSlice(2, 2, []complex128{1, complex(nan, 0), complex(nan, 0), 1}), "(0,1)"},
		{"NaN on the diagonal", FromSlice(2, 2, []complex128{1, 0, 0, complex(nan, 0)}), "(1,1)"},
		{"imaginary +Inf", FromSlice(2, 2, []complex128{1, complex(0, inf), complex(0, -inf), 1}), "(0,1)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := EigHermitian(c.a)
			if err == nil {
				t.Fatal("non-finite input accepted")
			}
			if !strings.Contains(err.Error(), c.pos) {
				t.Fatalf("error %q does not name entry %s", err, c.pos)
			}
		})
	}
}

func TestEigHermitianNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, _ = EigHermitian(NewMatrix(2, 3))
}

func TestEigHermitianZero(t *testing.T) {
	res, err := EigHermitian(NewMatrix(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Values {
		if v != 0 {
			t.Fatalf("zero matrix has nonzero eigenvalue %v", v)
		}
	}
}

func TestMinEigenvaluePSD(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	// A†A is positive semidefinite.
	a := Random(rng, 6, 4)
	g := MatMul(a.ConjTranspose(), a)
	mn, err := MinEigenvalueHermitian(g)
	if err != nil {
		t.Fatal(err)
	}
	if mn < -1e-9 {
		t.Fatalf("Gram matrix should be PSD, min eigenvalue %v", mn)
	}
}

// Property: trace equals the sum of eigenvalues.
func TestPropertyEigTrace(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomHermitian(rng, n)
		res, err := EigHermitian(a)
		if err != nil {
			return false
		}
		var tr, sum float64
		for i := 0; i < n; i++ {
			tr += real(a.At(i, i))
		}
		for _, v := range res.Values {
			sum += v
		}
		return math.Abs(tr-sum) < 1e-8*(1+math.Abs(tr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: eigenvalues of H² are squares of eigenvalues of H (in some
// order) — checked via the sorted absolute spectra.
func TestPropertyEigSquare(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := randomHermitian(rng, n)
		r1, err1 := EigHermitian(a)
		r2, err2 := EigHermitian(MatMul(a, a))
		if err1 != nil || err2 != nil {
			return false
		}
		sq := make([]float64, n)
		for i, v := range r1.Values {
			sq[i] = v * v
		}
		// Both descending after squaring? Sort squares descending.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if sq[j] > sq[i] {
					sq[i], sq[j] = sq[j], sq[i]
				}
			}
		}
		for i := range sq {
			if math.Abs(sq[i]-r2.Values[i]) > 1e-6*(1+sq[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
