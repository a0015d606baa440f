package linalg

import (
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func checkQR(t *testing.T, a *Matrix, tol float64) {
	t.Helper()
	q, r := QR(a)
	k := min(a.Rows, a.Cols)
	if q.Rows != a.Rows || q.Cols != k || r.Rows != k || r.Cols != a.Cols {
		t.Fatalf("thin QR shapes wrong: Q %d×%d, R %d×%d for A %d×%d",
			q.Rows, q.Cols, r.Rows, r.Cols, a.Rows, a.Cols)
	}
	if !q.IsUnitary(tol) {
		t.Fatal("Q columns not orthonormal")
	}
	for i := 0; i < r.Rows; i++ {
		for j := 0; j < i && j < r.Cols; j++ {
			if cmplx.Abs(r.At(i, j)) > tol {
				t.Fatalf("R not upper triangular at (%d,%d): %v", i, j, r.At(i, j))
			}
		}
	}
	if d := MatMul(q, r).Sub(a).FrobeniusNorm(); d > tol*(1+a.FrobeniusNorm()) {
		t.Fatalf("QR reconstruction error %.3g", d)
	}
}

func TestQRRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, sz := range [][2]int{{1, 1}, {3, 3}, {6, 3}, {3, 6}, {16, 16}, {20, 5}, {5, 20}} {
		checkQR(t, Random(rng, sz[0], sz[1]), 1e-10)
	}
}

func TestQRIdentity(t *testing.T) {
	q, r := QR(Identity(4))
	if !MatMul(q, r).EqualApprox(Identity(4), 1e-12) {
		t.Fatal("QR of identity broken")
	}
}

func TestQRZeroColumn(t *testing.T) {
	a := FromSlice(3, 2, []complex128{0, 1, 0, 2, 0, 3})
	checkQR(t, a, 1e-10)
}

func TestQRZeroMatrix(t *testing.T) {
	a := NewMatrix(3, 3)
	q, r := QR(a)
	if MatMul(q, r).Sub(a).FrobeniusNorm() > 1e-12 {
		t.Fatal("QR of zero matrix should reconstruct zero")
	}
}

func TestLQ(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, sz := range [][2]int{{3, 6}, {6, 3}, {4, 4}, {1, 5}} {
		a := Random(rng, sz[0], sz[1])
		l, q := LQ(a)
		// Q must have orthonormal rows: QQ† = I.
		if !q.ConjTranspose().IsUnitary(1e-10) {
			t.Fatalf("LQ: Q rows not orthonormal for %v", sz)
		}
		// L lower triangular/trapezoidal.
		for i := 0; i < l.Rows; i++ {
			for j := i + 1; j < l.Cols; j++ {
				if cmplx.Abs(l.At(i, j)) > 1e-10 {
					t.Fatalf("LQ: L not lower triangular at (%d,%d)", i, j)
				}
			}
		}
		if d := MatMul(l, q).Sub(a).FrobeniusNorm(); d > 1e-9*(1+a.FrobeniusNorm()) {
			t.Fatalf("LQ reconstruction error %.3g for %v", d, sz)
		}
	}
}

// Property: QR reconstructs and R's diagonal magnitudes equal the column
// norms of Q†A (consistency of the factorization).
func TestPropertyQRReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(10), 1+rng.Intn(10)
		a := Random(rng, m, n)
		q, r := QR(a)
		if !q.IsUnitary(1e-9) {
			return false
		}
		return MatMul(q, r).Sub(a).FrobeniusNorm() <= 1e-9*(1+a.FrobeniusNorm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkQR64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := Random(rng, 64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = QR(a)
	}
}

// TestQRParallelAgreesWithSerial: QRInto with its reflector updates fanned
// over workers reproduces the serial QR bit for bit; at 200×100 and up the
// column updates cross qrParallelThreshold, so the parallel path runs.
func TestQRParallelAgreesWithSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, sz := range [][2]int{{8, 8}, {200, 100}, {100, 200}, {256, 256}} {
		a := Random(rng, sz[0], sz[1])
		q1, r1 := QR(a)
		for _, workers := range []int{2, 8} {
			var ws Workspace
			q2, r2 := QRInto(&ws, a, workers)
			for i := range q1.Data {
				if q1.Data[i] != q2.Data[i] {
					t.Fatalf("parallel QR (%d workers) Q differs at %v, entry %d", workers, sz, i)
				}
			}
			for i := range r1.Data {
				if r1.Data[i] != r2.Data[i] {
					t.Fatalf("parallel QR (%d workers) R differs at %v, entry %d", workers, sz, i)
				}
			}
		}
	}
}

func BenchmarkQRIntoParallel256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := Random(rng, 256, 256)
	var ws Workspace
	QRInto(&ws, a, 8)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = QRInto(&ws, a, 8)
	}
}
