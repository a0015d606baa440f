package linalg

import (
	"math/cmplx"
	"sync"
)

// QR computes the thin QR decomposition a = q·r via complex Householder
// reflections.
//
// For an m×n input with m ≥ n, q is m×n with orthonormal columns and r is n×n
// upper triangular. For m < n, q is m×m unitary and r is m×n upper
// trapezoidal. QR underpins MPS canonicalisation (internal/mps), where site
// tensors are repeatedly orthogonalised before SVD truncation.
func QR(a *Matrix) (q, r *Matrix) {
	// QRInto holds the single copy of the reflector arithmetic; a throwaway
	// workspace's factors are freshly allocated, so the caller owns them.
	var ws Workspace
	return QRInto(&ws, a, 1)
}

// qrParallelThreshold is the per-reflector work (rows × cols) above which
// column updates are distributed over goroutines.
const qrParallelThreshold = 1 << 14

// applyHouseholderRange applies (I − β v v†) to rows [pivot, Rows) of columns
// [colLo, colHi), distributing column chunks over up to workers goroutines
// when the slab is large enough to amortise the synchronisation. Disjoint
// column ranges are independent, so results are bit-identical to the serial
// path for any worker count.
func applyHouseholderRange(m *Matrix, v []complex128, beta float64, pivot, colLo, colHi, workers int) {
	ncols := colHi - colLo
	if ncols <= 0 {
		return
	}
	if workers <= 1 || (m.Rows-pivot)*ncols < qrParallelThreshold {
		applyHouseholderCols(m, v, beta, pivot, colLo, colHi)
		return
	}
	var wg sync.WaitGroup
	chunk := (ncols + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := colLo+w*chunk, colLo+(w+1)*chunk
		if hi > colHi {
			hi = colHi
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			applyHouseholderCols(m, v, beta, pivot, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// applyHouseholderCols applies the reflector to columns [colLo, colHi) only;
// disjoint column ranges are independent, enabling the parallel path.
func applyHouseholderCols(m *Matrix, v []complex128, beta float64, pivot, colLo, colHi int) {
	rows, cols := m.Rows, m.Cols
	for j := colLo; j < colHi; j++ {
		// w = v† · m[:, j]
		var w complex128
		for i := pivot; i < rows; i++ {
			w += cmplx.Conj(v[i]) * m.Data[i*cols+j]
		}
		if w == 0 {
			continue
		}
		w *= complex(beta, 0)
		for i := pivot; i < rows; i++ {
			m.Data[i*cols+j] -= w * v[i]
		}
	}
}

// LQ computes the thin LQ decomposition a = l·q, where q has orthonormal rows
// and l is lower triangular/trapezoidal. It is derived from QR of a†:
// a† = Q̃R̃  ⇒  a = R̃†Q̃†. Used for right-canonicalising MPS site tensors.
func LQ(a *Matrix) (l, q *Matrix) {
	qt, rt := QR(a.ConjTranspose())
	return rt.ConjTranspose(), qt.ConjTranspose()
}
