package linalg

import "math/cmplx"

// TruncSVD is the two-phase thin SVD of the MPS gate hot path. Phase one
// (SVDTruncLazy) computes the complete singular spectrum — everything the
// truncation cut needs — while deferring the formation of U's orthonormal
// columns; Factors then materialises the thin factors for the kept rank
// only, so the Householder Q build runs on an m×keep panel (replaying only
// the first keep reflectors) instead of m×n. At a saturated bond dimension
// the cut keeps half the spectrum (keep = χ out of n = 2χ), which makes the
// deferred build several times cheaper than an eager full-rank one.
// Factors(len(S)) yields the complete thin SVD: the kept Q panel is exactly
// the leading block of the full thin Q.
type TruncSVD struct {
	// S holds all min(m, n) singular values in descending order, read off
	// the QR factor stage's diagonal — NOT off raw column norms of B = A·V:
	// eigenvector error from the squared-condition Gram solve contaminates
	// each tail column with ~√ε·σ_max of the dominant directions, and only
	// the orthogonalisation against the leading columns removes it (the
	// contamination lies in their span). Raw norms floor near √ε·σ_max and
	// inflate the retained bond dimension; R's diagonal tracks the true tail
	// to ~ε·σ_max.
	S []float64

	ws       *Workspace
	workers  int
	swapped  bool // wide input: Factors swaps the factor roles back
	prec     bool // QR-preconditioned: lift the kept U by ws.precQ
	hasEager bool // small/degenerate block: everything computed up front
	eager    SVDResult
}

// SVDTruncLazy begins the two-phase truncation SVD of a, the decomposition
// of the MPS gate engine. The decomposition contract matches SVD (thin
// factors, S descending) once Factors(len(S)) has run, but the factors alias
// workspace storage — valid only until the workspace's next use — and the
// algorithm is selected by aspect ratio (wide inputs are decomposed through
// their adjoint, with the factor roles swapped back by Factors):
//
//   - min(m,n) ≤ 2: pooled-buffer one-sided Jacobi, computed eagerly;
//   - aspect ≥ qrPrecondAspect: thin QR first, then the Gram stage on the
//     small square R, with U recovered as Q·U_R;
//   - otherwise: the Gram stage directly — form G = A†A, eigensolve it for
//     V, then run the QR factor stage of A·V, whose R diagonal is the
//     spectrum (see gramPhase1) and whose reflectors Factors replays to
//     build U (so U is Householder-orthonormal regardless of how small the
//     trailing singular values are).
//
// The Gram stage squares the condition number, so trailing singular values
// below ~√ε·σ_max carry absolute (not relative) accuracy — exactly the
// regime the MPS truncation budget discards, which is why this trade is safe
// on the gate hot path while the fully accurate SVD remains available for
// spectrum-sensitive callers. Results are bit-identical for any workers
// value: parallelism only splits independent row/column blocks.
func SVDTruncLazy(ws *Workspace, a *Matrix, workers int) TruncSVD {
	t := TruncSVD{ws: ws, workers: workers}
	m, n := a.Rows, a.Cols
	if m == 0 || n == 0 {
		t.hasEager = true
		t.eager = SVDResult{U: NewMatrix(m, 0), S: nil, V: NewMatrix(n, 0)}
		return t
	}
	ta := a
	if m < n {
		// SVD(a†) = V Σ U† ⇒ Factors swaps the roles back.
		t.swapped = true
		conjTransposeInto(&ws.adj, a)
		ta = &ws.adj
		m, n = n, m
	}
	if n <= jacobiFallbackDim {
		t.hasEager = true
		t.eager = svdJacobiWS(ws, ta)
		t.S = t.eager.S
		return t
	}
	if m >= qrPrecondAspect*n {
		// Precondition: ta = Q1·R1, Gram stage on the n×n R1; Factors lifts
		// the kept U by the preserved Q1.
		q1, r1 := QRInto(ws, ta, workers)
		ws.precQ.Reuse(q1.Rows, q1.Cols)
		copy(ws.precQ.Data, q1.Data)
		t.prec = true
		ta = r1
	}
	t.gramPhase1(ta)
	return t
}

// gramPhase1 runs all but the Q build of the Gram-accelerated SVD for the
// tall (m ≥ n) operand: form G = A†A with the Hermitian fill, eigensolve for
// V, build B = A·V, and run the QR factor stage on B. B's columns are
// orthogonal with norms σ by construction, so R is diagonal up to the
// eigensolve tolerance and the parked Householder reflectors let Factors
// assemble the kept U panel later. The singular values are read off R's
// diagonal rather than as √λ: the Gram eigenvalues carry only ~√ε·σ_max
// absolute accuracy (squaring loses the bottom half of the spectrum), which
// would inflate the trailing values to noise the MPS truncation budget can
// no longer discard — whereas R's diagonal is computed from A's columns
// directly and recovers ~ε·σ_max absolute accuracy, keeping the
// discarded-weight arithmetic at full precision. r1 (when preconditioned)
// is fully consumed here.
func (t *TruncSVD) gramPhase1(a *Matrix) {
	ws := t.ws
	n := a.Cols
	gramHermInto(&ws.gram, a, t.workers)
	v := gramEigSortV(ws, n)
	mulIntoWorkers(&ws.bmat, a, v, t.workers)
	r2 := qrFactor(ws, &ws.bmat, t.workers)
	s := growF(&ws.sval, n)
	for j := 0; j < n; j++ {
		s[j] = cmplx.Abs(r2.Data[j*n+j])
	}
	t.S = s
}

// Factors materialises the thin factors at the kept rank: replay the first
// keep Householder reflectors of the deferred QR into an m×keep panel —
// bit-identical to the leading keep columns of the full thin Q — and
// transfer R's diagonal phases onto U's columns. U has exactly keep columns;
// V keeps its full square width (read its leading keep columns with stride
// V.Cols). Both alias workspace storage, valid until the workspace's next
// use.
func (t *TruncSVD) Factors(keep int) (u, v *Matrix) {
	if t.hasEager {
		if t.swapped {
			return t.eager.V, t.eager.U
		}
		return t.eager.U, t.eager.V
	}
	ws := t.ws
	n := ws.qrR.Cols
	if keep < 1 {
		keep = 1
	}
	if keep > n {
		keep = n
	}
	q2 := qrFormQ(ws, keep, t.workers)
	m := q2.Rows
	u = ws.uout.Reuse(m, keep)
	for j := 0; j < keep; j++ {
		d := ws.qrR.Data[j*n+j]
		ab := cmplx.Abs(d)
		ph := complex(1, 0)
		if ab > 0 {
			ph = d / complex(ab, 0)
		}
		for i := 0; i < m; i++ {
			u.Data[i*keep+j] = q2.Data[i*keep+j] * ph
		}
	}
	if t.prec {
		// Final U = Q1·U_R; bmat is free again (qrFactor consumed it).
		u = mulIntoWorkers(&ws.bmat, &ws.precQ, u, t.workers)
	}
	v = &ws.vmat
	if t.swapped {
		return v, u
	}
	return u, v
}

// gramEigSortV eigensolves the Hermitian block in ws.gram (the Gram matrix
// of the truncation SVD, or EigHermitian's symmetrised input): blocked
// tridiagonal+QL past the crossover, Jacobi below it or on non-convergence.
// It sorts the eigenpairs descending into ws.vmat's columns (the accumulator
// holds eigenvector j in row j, so this transposes as it sorts); ws.evals
// keeps the unsorted eigenvalues and ws.eidx the descending order.
func gramEigSortV(ws *Workspace, n int) *Matrix {
	if n < blockedEigMinDim || !blockedEigHerm(ws) {
		jacobiEigHerm(ws)
	}
	vals := growF(&ws.evals, n)
	idx := growI(&ws.eidx, n)
	for i := 0; i < n; i++ {
		vals[i] = real(ws.gram.Data[i*n+i])
		idx[i] = i
	}
	insertionSortDesc(vals, idx)
	v := ws.vmat.Reuse(n, n)
	for jj, src := range idx {
		row := ws.eigV.Data[src*n : (src+1)*n]
		for i := 0; i < n; i++ {
			v.Data[i*n+jj] = row[i]
		}
	}
	return v
}

// gramHermInto fills dst = a†·a exploiting hermiticity: only the upper
// triangle accumulates (contraction index ascending — entry for entry the
// sums MatMulAdjAInto would produce) and the lower triangle is written as
// the conjugate mirror. The mirror is exact, not approximate: each lower
// term conj(a_pj)·a_pi is the bit-exact FP conjugate of the mirrored upper
// term (the same real products combined in the same order), and the diagonal
// terms conj(x)·x have an exactly-zero imaginary part — so the result is
// bit-identical to the full fill, exactly Hermitian, and needs no
// symmetrisation pass. Large blocks with workers available fall back to the
// column-parallel full fill, which produces the identical matrix.
func gramHermInto(dst, a *Matrix, workers int) *Matrix {
	n := a.Cols
	if workers > 1 && 2*a.Rows*n*n >= matmulParallelThreshold {
		return adjAIntoWorkers(dst, a, a, workers)
	}
	dst.Reuse(n, n)
	for p := 0; p < a.Rows; p++ {
		arow := a.Data[p*n : (p+1)*n]
		for i, av := range arow {
			cv := complex(real(av), -imag(av))
			if cv == 0 {
				continue
			}
			crow := dst.Data[i*n : (i+1)*n]
			for j := i; j < n; j++ {
				crow[j] += cv * arow[j]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := dst.Data[i*n+j]
			dst.Data[j*n+i] = complex(real(v), -imag(v))
		}
	}
	return dst
}
