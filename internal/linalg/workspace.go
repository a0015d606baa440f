package linalg

import (
	"math"
	"math/cmplx"
	"sync"
)

// Workspace owns every scratch buffer the workspace-backed decomposition
// kernels (QRInto, LQInto, SVDTruncLazy) need: the in-progress R of a Householder
// QR, the flat Householder-vector storage, the Gram matrix and eigenvector
// accumulator of the Gram-accelerated SVD, and the pooled column storage of
// the small-block Jacobi fallback. All buffers are grow-only: a workspace
// warmed to the largest matrix seen performs the decompositions with zero
// heap allocations.
//
// Returned factors (Q, R, U, S, V) alias workspace storage and are valid only
// until the next workspace-backed call; callers copy what they keep. The zero
// value is ready to use. A Workspace is NOT safe for concurrent use; give
// each goroutine its own.
type Workspace struct {
	// Householder QR scratch.
	qrWork Matrix       // in-progress R (working copy of the input)
	qrV    []complex128 // flat Householder vectors, k vectors of length m
	qrBeta []float64
	qrQ    Matrix // thin-Q output
	qrR    Matrix // R output

	// Adjoint scratch (LQ, wide-matrix SVD).
	adj Matrix

	// LQ outputs (conjugate transposes of the adjoint's QR factors).
	lqL Matrix
	lqQ Matrix

	// Gram-accelerated SVD scratch.
	gram  Matrix // G = A†A (or EigHermitian's input), eigensolved in place
	eigV  Matrix // eigenvector accumulator
	vmat  Matrix // V output (eigenvectors sorted by descending eigenvalue)
	bmat  Matrix // B = A·V; doubles as the final-U buffer on the QR-preconditioned path
	uout  Matrix // U output of the core Gram stage
	precQ Matrix // preserved Q of the QR-preconditioning step
	sval  []float64
	evals []float64
	eidx  []int

	// Pooled column storage of the one-sided Jacobi core (the small-block
	// fallback, and SVD through a throwaway workspace).
	colsFlat  []complex128
	vcolsFlat []complex128
	cols      [][]complex128
	vcols     [][]complex128
	jacU      Matrix
	jacV      Matrix
	jacS      []float64

	// Blocked (tridiagonal + implicit-shift QL) eigensolver scratch.
	triV    []complex128 // parked Householder reflector vectors
	triP    []complex128 // p/w update vector of the similarity transform
	triU    []complex128 // subdiagonal phase accumulator
	triSave []complex128 // input snapshot for the Jacobi fallback
	triBeta []float64
	triD    []float64 // tridiagonal diagonal → eigenvalues
	triE    []float64 // tridiagonal subdiagonal
	triQ    Matrix    // accumulated Householder unitary
}

// growC resizes a complex scratch slice to n entries, reallocating only when
// capacity is insufficient. Contents are unspecified.
func growC(buf *[]complex128, n int) []complex128 {
	if cap(*buf) < n {
		*buf = make([]complex128, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growF is growC for float64 scratch.
func growF(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growI is growC for index scratch.
func growI(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// conjTransposeInto writes a† into dst, reusing dst's storage.
func conjTransposeInto(dst, a *Matrix) *Matrix {
	dst.Reuse(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			dst.Data[j*a.Rows+i] = complex(real(v), -imag(v))
		}
	}
	return dst
}

// mulIntoWorkers computes dst = a·b into dst's reused storage, distributing
// row blocks over up to workers goroutines (products below the parallel
// threshold stay serial to avoid scheduling overhead). Every row is produced
// by exactly one goroutine running the serial kernel, so the result is
// bit-for-bit identical to MatMulInto regardless of the worker count.
func mulIntoWorkers(dst, a, b *Matrix, workers int) *Matrix {
	checkMulShapes(a, b)
	dst.Reuse(a.Rows, b.Cols)
	if 2*a.Rows*a.Cols*b.Cols < matmulParallelThreshold {
		workers = 1
	}
	mulRowsParallel(a, b, dst, workers)
	return dst
}

// adjAIntoWorkers computes dst = a†·b into dst's reused storage, splitting
// the destination columns over up to workers goroutines. Each dst entry
// accumulates over the contraction index in ascending order on one goroutine,
// so the result is bit-for-bit identical to MatMulAdjAInto for any worker
// count.
func adjAIntoWorkers(dst, a, b *Matrix, workers int) *Matrix {
	if a.Rows != b.Rows {
		panic("linalg: adjA contraction mismatch")
	}
	m, n := a.Cols, b.Cols
	dst.Reuse(m, n)
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || 2*a.Rows*m*n < matmulParallelThreshold {
		adjACols(dst, a, b, 0, n)
		return dst
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			adjACols(dst, a, b, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return dst
}

// adjACols fills columns [jLo, jHi) of dst = a†·b.
func adjACols(dst, a, b *Matrix, jLo, jHi int) {
	m, n := a.Cols, b.Cols
	for p := 0; p < a.Rows; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i, av := range arow {
			cv := complex(real(av), -imag(av))
			if cv == 0 {
				continue
			}
			crow := dst.Data[i*n : (i+1)*n]
			for j := jLo; j < jHi; j++ {
				crow[j] += cv * brow[j]
			}
		}
	}
}

// QRInto computes the thin QR decomposition a = q·r with all scratch and both
// factors held in the workspace: the same Householder algorithm as QR, but
// with the per-reflector vectors packed into one flat grow-only buffer, so a
// warm workspace performs the decomposition with zero heap allocations.
// workers parallelises the independent column updates of each reflector
// (results are bit-identical to the serial path for any worker count).
// Internally the factor stage (qrFactor) and Q formation (qrFormQ) are
// separate so the two-phase truncation SVD can defer — and rank-restrict —
// the Q build.
func QRInto(ws *Workspace, a *Matrix, workers int) (q, r *Matrix) {
	r = qrFactor(ws, a, workers)
	q = qrFormQ(ws, r.Rows, workers)
	return q, r
}

// qrFactor runs the Householder factor stage on a copy of a held in
// ws.qrWork: it returns R (aliasing ws.qrR) and parks the k = min(m, n)
// reflector vectors and betas in ws.qrV/ws.qrBeta for qrFormQ. Reflector j
// updates columns [j, n) only — the columns to its left hold nothing any
// later stage reads (their upper-triangle entries live in rows < j, which
// the reflector never touches), so the restriction is bit-identical to the
// full-width update at roughly two-thirds the flops.
func qrFactor(ws *Workspace, a *Matrix, workers int) (r *Matrix) {
	m, n := a.Rows, a.Cols
	k := m
	if n < k {
		k = n
	}
	work := ws.qrWork.Reuse(m, n)
	copy(work.Data, a.Data)
	vs := growC(&ws.qrV, k*m)
	betas := growF(&ws.qrBeta, k)

	for j := 0; j < k; j++ {
		v := vs[j*m : (j+1)*m]
		for i := 0; i < j; i++ {
			v[i] = 0
		}
		var colNorm float64
		for i := j; i < m; i++ {
			v[i] = work.Data[i*n+j]
			colNorm += real(v[i])*real(v[i]) + imag(v[i])*imag(v[i])
		}
		colNorm = math.Sqrt(colNorm)
		if colNorm == 0 {
			betas[j] = 0
			continue
		}
		phase := complex(1, 0)
		if cmplx.Abs(v[j]) > 0 {
			phase = v[j] / complex(cmplx.Abs(v[j]), 0)
		}
		alpha := -phase * complex(colNorm, 0)
		v[j] -= alpha
		var vnorm2 float64
		for i := j; i < m; i++ {
			vnorm2 += real(v[i])*real(v[i]) + imag(v[i])*imag(v[i])
		}
		betas[j] = 0
		if vnorm2 > 0 {
			betas[j] = 2 / vnorm2
		}
		if betas[j] == 0 {
			continue
		}
		applyHouseholderRange(work, v, betas[j], j, j, n, workers)
	}

	r = ws.qrR.Reuse(k, n)
	for i := 0; i < k; i++ {
		for j := i; j < n; j++ {
			r.Data[i*n+j] = work.Data[i*n+j]
		}
	}
	return r
}

// qrFormQ materialises the leading cols columns of the thin Q factor from
// the reflectors the preceding qrFactor call parked in the workspace (the
// factorisation had k reflectors over m rows; cols ≤ k selects a leading
// panel). Reflectors are replayed in reverse onto an identity block, and two
// structural no-ops are skipped exactly: reflector idx leaves every column
// j < idx untouched while that column is still a basis vector (its vector
// has zeros above row idx), so the update restricts to columns [idx, cols) —
// and reflectors with idx ≥ cols are skipped entirely. The produced panel is
// bit-identical to the leading cols columns of the full thin Q.
func qrFormQ(ws *Workspace, cols, workers int) (q *Matrix) {
	m := ws.qrWork.Rows
	k := ws.qrR.Rows
	if cols > k {
		cols = k
	}
	vs := ws.qrV
	betas := ws.qrBeta
	q = ws.qrQ.Reuse(m, cols)
	for j := 0; j < cols; j++ {
		q.Data[j*cols+j] = 1
	}
	for idx := cols - 1; idx >= 0; idx-- {
		if betas[idx] == 0 {
			continue
		}
		applyHouseholderRange(q, vs[idx*m:(idx+1)*m], betas[idx], idx, idx, cols, workers)
	}
	return q
}

// LQInto computes the thin LQ decomposition a = l·q through the workspace:
// QR of a† with the factors conjugate-transposed back, all buffers pooled.
func LQInto(ws *Workspace, a *Matrix, workers int) (l, q *Matrix) {
	conjTransposeInto(&ws.adj, a)
	qt, rt := QRInto(ws, &ws.adj, workers)
	return conjTransposeInto(&ws.lqL, rt), conjTransposeInto(&ws.lqQ, qt)
}
