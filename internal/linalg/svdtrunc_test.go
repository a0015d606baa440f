package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// checkThinSVD validates the SVDResult contract for an m×n input: factor
// shapes, descending non-negative S, orthonormal columns of U and V, and
// reconstruction of the input.
func checkThinSVD(t *testing.T, a *Matrix, r SVDResult, tol float64) {
	t.Helper()
	k := a.Rows
	if a.Cols < k {
		k = a.Cols
	}
	if r.U.Rows != a.Rows || r.U.Cols != k || r.V.Rows != a.Cols || r.V.Cols != k || len(r.S) != k {
		t.Fatalf("thin shape mismatch: U %d×%d, V %d×%d, |S|=%d for input %d×%d",
			r.U.Rows, r.U.Cols, r.V.Rows, r.V.Cols, len(r.S), a.Rows, a.Cols)
	}
	for i, s := range r.S {
		if s < 0 {
			t.Fatalf("S[%d] = %v negative", i, s)
		}
		if i > 0 && r.S[i-1] < s-1e-12*r.S[0] {
			t.Fatalf("S not descending at %d: %v after %v", i, s, r.S[i-1])
		}
	}
	if !r.U.IsUnitary(1e-10) {
		t.Fatal("U columns not orthonormal")
	}
	if !r.V.IsUnitary(1e-10) {
		t.Fatal("V columns not orthonormal")
	}
	rec := r.Reconstruct()
	if !rec.EqualApprox(a, tol) {
		t.Fatalf("reconstruction error %v exceeds %v", rec.Sub(a).MaxAbs(), tol)
	}
}

// svdTrunc is the truncation SVD run eagerly at full rank: SVDTruncLazy's
// phase one followed by Factors(len(S)), which is the complete thin
// decomposition. The factors alias ws.
func svdTrunc(ws *Workspace, a *Matrix, workers int) SVDResult {
	t := SVDTruncLazy(ws, a, workers)
	u, v := t.Factors(len(t.S))
	return SVDResult{U: u, S: t.S, V: v}
}

// TestSVDTruncShapes runs the full contract over every path the aspect-ratio
// selector can take — tiny Jacobi-fallback blocks, near-square Gram blocks,
// strongly rectangular QR-preconditioned blocks, both orientations — with
// ONE workspace reused throughout, so buffer pooling is exercised across
// shape changes.
func TestSVDTruncShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var ws Workspace
	shapes := [][2]int{
		{1, 1}, {2, 2}, {2, 7}, {7, 2}, // Jacobi fallback
		{8, 8}, {12, 9}, {9, 12}, {24, 24}, {17, 13}, // direct Gram
		{40, 5}, {5, 40}, {64, 8}, {30, 15}, {15, 30}, // QR-preconditioned
	}
	for _, sh := range shapes {
		for trial := 0; trial < 3; trial++ {
			a := Random(rng, sh[0], sh[1])
			scale := a.MaxAbs()
			r := svdTrunc(&ws, a, 1)
			checkThinSVD(t, a, r, 1e-9*scale)
			// The spectrum must agree with the reference Jacobi SVD.
			ref := SVD(a)
			for i := range r.S {
				if math.Abs(r.S[i]-ref.S[i]) > 1e-9*ref.S[0] {
					t.Fatalf("%dx%d: S[%d] = %v, reference %v", sh[0], sh[1], i, r.S[i], ref.S[i])
				}
			}
		}
	}
}

// TestSVDTruncWorkersBitIdentical: the workers parameter may only change
// scheduling, never a bit of the result — the property the MPS engine's
// serial/parallel backend agreement rests on.
func TestSVDTruncWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, sh := range [][2]int{{48, 48}, {96, 24}, {24, 96}} {
		a := Random(rng, sh[0], sh[1])
		var ws1, ws4 Workspace
		r1 := svdTrunc(&ws1, a, 1)
		r4 := svdTrunc(&ws4, a, 4)
		for i := range r1.S {
			if r1.S[i] != r4.S[i] {
				t.Fatalf("S[%d] differs across worker counts: %v vs %v", i, r1.S[i], r4.S[i])
			}
		}
		for i := range r1.U.Data {
			if r1.U.Data[i] != r4.U.Data[i] {
				t.Fatalf("U entry %d differs across worker counts", i)
			}
		}
		for i := range r1.V.Data {
			if r1.V.Data[i] != r4.V.Data[i] {
				t.Fatalf("V entry %d differs across worker counts", i)
			}
		}
	}
}

// TestSVDTruncTinyTailAccuracy pins the fix that keeps MPS truncation
// honest: singular values far below √ε·σ_max (invisible to a pure Gram
// eigensolve) must come back at the right magnitude, not inflated to the
// Gram noise floor — otherwise the 1e-16 discarded-weight budget stops
// discarding and bond dimensions bloat.
func TestSVDTruncTinyTailAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 12
	u := RandomUnitary(rng, n)
	v := RandomUnitary(rng, n)
	want := make([]float64, n)
	for i := range want {
		want[i] = math.Pow(10, -float64(2*i)) // 1, 1e-2, …, 1e-22
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc complex128
			for k := 0; k < n; k++ {
				acc += u.At(i, k) * complex(want[k], 0) * complex(real(v.At(j, k)), -imag(v.At(j, k)))
			}
			a.Set(i, j, acc)
		}
	}
	var ws Workspace
	r := svdTrunc(&ws, a, 1)
	// Values comfortably above the √ε·σ_max Gram noise floor keep relative
	// accuracy (those at the floor itself carry O(1) relative error — the
	// documented trade); tail values must stay at or below ~ε·σ_max in
	// absolute terms instead of being inflated to √ε·σ_max.
	for i := 0; i < 4; i++ {
		if math.Abs(r.S[i]-want[i]) > 1e-6*want[i] {
			t.Fatalf("S[%d] = %v, want %v", i, r.S[i], want[i])
		}
	}
	var tail float64
	for i := 8; i < n; i++ {
		tail += r.S[i] * r.S[i]
	}
	if tail > 1e-28 {
		t.Fatalf("trailing discarded weight %v inflated above the full-precision noise floor", tail)
	}
}

// TestSVDTruncRankDeficientAndZero: degenerate inputs keep orthonormal
// factors (Householder Q needs no null-space completion).
func TestSVDTruncRankDeficientAndZero(t *testing.T) {
	var ws Workspace
	rng := rand.New(rand.NewSource(17))
	// Rank-2 matrix in a 10×6 frame.
	b := Random(rng, 10, 2)
	c := Random(rng, 2, 6)
	a := MatMul(b, c)
	r := svdTrunc(&ws, a, 1)
	checkThinSVD(t, a, r, 1e-9*a.MaxAbs())
	for i := 2; i < len(r.S); i++ {
		if r.S[i] > 1e-10*r.S[0] {
			t.Fatalf("rank-2 input produced S[%d] = %v", i, r.S[i])
		}
	}
	z := NewMatrix(7, 4)
	rz := svdTrunc(&ws, z, 1)
	if !rz.U.IsUnitary(1e-12) || !rz.V.IsUnitary(1e-12) {
		t.Fatal("zero matrix must still yield orthonormal factors")
	}
	for _, s := range rz.S {
		if s != 0 {
			t.Fatalf("zero matrix produced singular value %v", s)
		}
	}
}

// TestSVDTruncZeroAllocWarm: a warmed workspace performs the full
// decomposition without touching the heap — the property the zero-realloc
// gate engine builds on.
func TestSVDTruncZeroAllocWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var ws Workspace
	mats := []*Matrix{
		Random(rng, 24, 24), // Gram path
		Random(rng, 40, 8),  // QR-preconditioned path
		Random(rng, 2, 9),   // Jacobi fallback (adjoint orientation)
	}
	for _, a := range mats {
		svdTrunc(&ws, a, 1) // warm the buffers for this shape
		allocs := testing.AllocsPerRun(20, func() {
			svdTrunc(&ws, a, 1)
		})
		if allocs != 0 {
			t.Fatalf("%d×%d: warm svdTrunc performed %v allocations, want 0", a.Rows, a.Cols, allocs)
		}
	}
}

// TestQRIntoMatchesQR: the pooled-storage QR must agree with the allocating
// reference implementation bit for bit (same reflector arithmetic).
func TestQRIntoMatchesQR(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var ws Workspace
	for _, sh := range [][2]int{{6, 6}, {12, 5}, {5, 12}} {
		a := Random(rng, sh[0], sh[1])
		qw, rw := QRInto(&ws, a, 1)
		qr, rr := QR(a)
		for i := range qr.Data {
			if qw.Data[i] != qr.Data[i] {
				t.Fatalf("%v: Q differs from reference at %d", sh, i)
			}
		}
		for i := range rr.Data {
			if rw.Data[i] != rr.Data[i] {
				t.Fatalf("%v: R differs from reference at %d", sh, i)
			}
		}
	}
}

// TestLQIntoFactorisation: l·q must reproduce the input with q's rows
// orthonormal.
func TestLQIntoFactorisation(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var ws Workspace
	for _, sh := range [][2]int{{4, 10}, {10, 4}, {6, 6}} {
		a := Random(rng, sh[0], sh[1])
		l, q := LQInto(&ws, a, 1)
		if !q.ConjTranspose().IsUnitary(1e-10) {
			t.Fatalf("%v: LQInto q rows not orthonormal", sh)
		}
		if !MatMul(l, q).EqualApprox(a, 1e-10*a.MaxAbs()) {
			t.Fatalf("%v: l·q does not reconstruct the input", sh)
		}
	}
}

// BenchmarkBlockedEig exercises the cache-blocked tridiagonal eigensolver
// behind SVDTruncLazy: a 128×64 factor puts the 64×64 Gram block well above
// blockedEigMinDim, so every iteration runs Householder tridiagonalisation +
// implicit-shift QL rather than cyclic Jacobi, then materialises the
// full-rank factors. The workspace is warmed outside the timer, so allocs/op
// reads the solver's steady state.
func BenchmarkBlockedEig(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := Random(rng, 128, 64)
	var ws Workspace
	decompose := func() float64 {
		t := SVDTruncLazy(&ws, a, 1)
		t.Factors(len(t.S))
		return t.S[0]
	}
	decompose()
	b.ResetTimer()
	b.ReportAllocs()
	var s0 float64
	for i := 0; i < b.N; i++ {
		s0 = decompose()
	}
	b.ReportMetric(s0, "σ₀")
}
