package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func checkSVD(t *testing.T, a *Matrix, res SVDResult, tol float64) {
	t.Helper()
	r := len(res.S)
	if res.U.Rows != a.Rows || res.U.Cols != r || res.V.Rows != a.Cols || res.V.Cols != r {
		t.Fatalf("thin SVD shapes wrong: U %d×%d, V %d×%d, r=%d for A %d×%d",
			res.U.Rows, res.U.Cols, res.V.Rows, res.V.Cols, r, a.Rows, a.Cols)
	}
	// Singular values sorted descending and non-negative.
	for i := 0; i < r; i++ {
		if res.S[i] < 0 {
			t.Fatalf("negative singular value %v", res.S[i])
		}
		if i > 0 && res.S[i] > res.S[i-1]+1e-12 {
			t.Fatalf("singular values not sorted: %v", res.S)
		}
	}
	if !res.U.IsUnitary(tol) {
		t.Fatal("U columns not orthonormal")
	}
	if !res.V.IsUnitary(tol) {
		t.Fatal("V columns not orthonormal")
	}
	rec := res.Reconstruct()
	scale := a.FrobeniusNorm()
	if scale == 0 {
		scale = 1
	}
	if d := rec.Sub(a).FrobeniusNorm() / scale; d > tol {
		t.Fatalf("reconstruction error %.3g > %.3g", d, tol)
	}
}

func TestSVDSmallKnown(t *testing.T) {
	// diag(3, 2) should give exactly those singular values.
	a := FromSlice(2, 2, []complex128{3, 0, 0, 2})
	res := SVD(a)
	if math.Abs(res.S[0]-3) > 1e-12 || math.Abs(res.S[1]-2) > 1e-12 {
		t.Fatalf("S = %v, want [3 2]", res.S)
	}
	checkSVD(t, a, res, 1e-12)
}

func TestSVDRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sz := range [][2]int{{1, 1}, {2, 2}, {5, 3}, {3, 5}, {8, 8}, {16, 7}, {7, 16}, {32, 32}} {
		a := Random(rng, sz[0], sz[1])
		checkSVD(t, a, SVD(a), 1e-10)
	}
}

func TestSVDRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Build a rank-2 matrix in 6×5.
	x := Random(rng, 6, 2)
	y := Random(rng, 2, 5)
	a := MatMul(x, y)
	res := SVD(a)
	checkSVD(t, a, res, 1e-10)
	if got := res.Rank(1e-10); got != 2 {
		t.Fatalf("Rank = %d, want 2 (S=%v)", got, res.S)
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	a := NewMatrix(4, 3)
	res := SVD(a)
	for _, s := range res.S {
		if s != 0 {
			t.Fatalf("zero matrix has nonzero singular value %v", s)
		}
	}
	if !res.U.IsUnitary(1e-12) || !res.V.IsUnitary(1e-12) {
		t.Fatal("null-completed factors must still be orthonormal")
	}
	if res.Rank(1e-10) != 0 {
		t.Fatal("zero matrix must have rank 0")
	}
}

func TestSVDEmptyMatrix(t *testing.T) {
	res := SVD(NewMatrix(0, 0))
	if len(res.S) != 0 {
		t.Fatalf("empty SVD should have no singular values, got %v", res.S)
	}
}

// TestSVDParallelAgreesWithSerial: the truncation SVD with its dense stages
// fanned over workers meets the thin-SVD contract and reproduces the
// spectrum of the serial one-sided Jacobi reference.
func TestSVDParallelAgreesWithSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, sz := range [][2]int{{8, 8}, {20, 13}, {13, 20}, {40, 40}, {96, 96}} {
		a := Random(rng, sz[0], sz[1])
		s1 := SVD(a)
		for _, workers := range []int{2, 4, 8} {
			var ws Workspace
			s2 := svdTrunc(&ws, a, workers)
			checkSVD(t, a, s2, 1e-9)
			for i := range s1.S {
				if math.Abs(s1.S[i]-s2.S[i]) > 1e-8*(1+s1.S[0]) {
					t.Fatalf("singular values differ serial vs parallel(%d): %v vs %v", workers, s1.S, s2.S)
				}
			}
		}
	}
}

func TestSVDSingularValuesOfUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	u := RandomUnitary(rng, 6)
	res := SVD(u)
	for _, s := range res.S {
		if math.Abs(s-1) > 1e-10 {
			t.Fatalf("unitary should have all singular values 1, got %v", res.S)
		}
	}
}

func TestSVDTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := Random(rng, 10, 8)
	res := SVD(a)
	tr, discarded := res.Truncate(3)
	if len(tr.S) != 3 || tr.U.Cols != 3 || tr.V.Cols != 3 {
		t.Fatalf("truncated shapes wrong: %d %d %d", len(tr.S), tr.U.Cols, tr.V.Cols)
	}
	var want float64
	for _, s := range res.S[3:] {
		want += s * s
	}
	if math.Abs(discarded-want) > 1e-12 {
		t.Fatalf("discarded weight %v, want %v", discarded, want)
	}
	// Eckart–Young: error of the rank-3 approximation equals sqrt of the
	// discarded weight.
	err := tr.Reconstruct().Sub(a).FrobeniusNorm()
	if math.Abs(err-math.Sqrt(want)) > 1e-8 {
		t.Fatalf("truncation error %v, want %v", err, math.Sqrt(want))
	}
}

func TestSVDTruncateBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	res := SVD(Random(rng, 4, 4))
	if tr, d := res.Truncate(-1); len(tr.S) != 0 || d <= 0 {
		t.Fatalf("Truncate(-1) should keep nothing and discard all weight, got %d, %v", len(tr.S), d)
	}
	if tr, d := res.Truncate(99); len(tr.S) != 4 || d != 0 {
		t.Fatalf("Truncate(99) should keep everything, got %d, %v", len(tr.S), d)
	}
}

// Property: SVD reconstructs arbitrary random matrices and the factors are
// orthonormal. This is the core guarantee the MPS simulator relies on.
func TestPropertySVDReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(10), 1+rng.Intn(10)
		a := Random(rng, m, n)
		res := SVD(a)
		if !res.U.IsUnitary(1e-9) || !res.V.IsUnitary(1e-9) {
			return false
		}
		return res.Reconstruct().Sub(a).FrobeniusNorm() <= 1e-9*(1+a.FrobeniusNorm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Frobenius norm equals sqrt(Σ σ²) — singular values capture all
// the matrix mass.
func TestPropertySVDNormIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Random(rng, 1+rng.Intn(8), 1+rng.Intn(8))
		res := SVD(a)
		var ss float64
		for _, s := range res.S {
			ss += s * s
		}
		return math.Abs(math.Sqrt(ss)-a.FrobeniusNorm()) < 1e-9*(1+a.FrobeniusNorm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: singular values are invariant under left/right multiplication by
// unitaries.
func TestPropertySVDUnitaryInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		a := Random(rng, n, n)
		u := RandomUnitary(rng, n)
		s1 := SVD(a).S
		s2 := SVD(MatMul(u, a)).S
		for i := range s1 {
			if math.Abs(s1[i]-s2[i]) > 1e-8*(1+s1[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSVDSerial64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := Random(rng, 64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = SVD(a)
	}
}
