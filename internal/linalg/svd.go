package linalg

import (
	"math"
	"math/cmplx"
)

// SVDResult holds a thin singular value decomposition a = U · diag(S) · V†.
//
// For an m×n input, U is m×r, V is n×r and S has r = min(m, n) non-negative
// entries sorted in descending order. U and V have orthonormal columns (null
// directions are completed to an orthonormal set, so orthogonality holds even
// for rank-deficient inputs).
type SVDResult struct {
	U *Matrix
	S []float64
	V *Matrix
}

// svdEps is the relative off-diagonal threshold below which a column pair is
// considered orthogonal and the Jacobi rotation is skipped.
const svdEps = 1e-14

// svdMaxSweeps bounds the number of Jacobi sweeps; in practice well-scaled
// inputs converge in under 15 sweeps.
const svdMaxSweeps = 64

// SVD computes the thin SVD of a using serial one-sided Jacobi iteration.
//
// One-sided Jacobi applies complex plane rotations to column pairs until all
// columns are mutually orthogonal; the singular values are then the column
// norms. The method is slower than bidiagonalisation-based SVD but is simple,
// numerically robust and computes small singular values to high relative
// accuracy — which matters here because MPS truncation (internal/mps) decides
// which singular values to discard against a 1e-16 error budget. No
// simulation path calls it: it is the decomposition of the reference chain
// in the internal/mps tests, the oracle the gate engine (and its
// SVDTruncLazy) is checked against.
func SVD(a *Matrix) SVDResult {
	m, n := a.Rows, a.Cols
	if m == 0 || n == 0 {
		return SVDResult{U: NewMatrix(m, 0), S: nil, V: NewMatrix(n, 0)}
	}
	if m < n {
		// SVD(a†) = V Σ U†  ⇒  swap the factors.
		r := SVD(a.ConjTranspose())
		return SVDResult{U: r.V, S: r.S, V: r.U}
	}
	// svdJacobiWS holds the single copy of the column-Jacobi machinery; a
	// throwaway workspace's factors are freshly allocated, so the caller
	// owns them.
	var ws Workspace
	return svdJacobiWS(&ws, a)
}

func svdSweepsSerial(cols, vcols [][]complex128) {
	n := len(cols)
	for sweep := 0; sweep < svdMaxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				if rotatePair(cols, vcols, p, q) {
					rotated = true
				}
			}
		}
		if !rotated {
			return
		}
	}
}

// rotatePair orthogonalises columns p and q (p < q); returns whether a
// rotation was applied.
func rotatePair(cols, vcols [][]complex128, p, q int) bool {
	cp, cq := cols[p], cols[q]
	var app, aqq float64
	var apq complex128
	for i := range cp {
		vp, vq := cp[i], cq[i]
		app += real(vp)*real(vp) + imag(vp)*imag(vp)
		aqq += real(vq)*real(vq) + imag(vq)*imag(vq)
		apq += cmplx.Conj(vp) * vq
	}
	mag := cmplx.Abs(apq)
	if mag <= svdEps*math.Sqrt(app*aqq) || mag == 0 {
		return false
	}
	// Remove the phase: B = [[app, |apq|], [|apq|, aqq]] is real symmetric.
	e := cmplx.Conj(apq) / complex(mag, 0) // e^{−iφ}
	tau := (aqq - app) / (2 * mag)
	var t float64
	if tau >= 0 {
		t = 1 / (tau + math.Sqrt(1+tau*tau))
	} else {
		t = -1 / (-tau + math.Sqrt(1+tau*tau))
	}
	c := 1 / math.Sqrt(1+t*t)
	s := t * c
	cs := complex(c, 0)
	se := complex(s, 0) * e
	// [a_p' a_q'] = [a_p a_q] · [[c, s],[−s e^{−iφ}, c e^{−iφ}]]
	for i := range cp {
		vp, vq := cp[i], cq[i]
		cp[i] = cs*vp - se*vq
		cq[i] = complex(s, 0)*vp + cs*e*vq
	}
	vp, vq := vcols[p], vcols[q]
	for i := range vp {
		a, b := vp[i], vq[i]
		vp[i] = cs*a - se*b
		vq[i] = complex(s, 0)*a + cs*e*b
	}
	return true
}

func colNorm(c []complex128) float64 {
	var s float64
	for _, v := range c {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// completeOrthonormal replaces the listed (null) columns of u with unit
// vectors orthogonal to all other columns, via modified Gram–Schmidt against
// canonical basis vectors.
func completeOrthonormal(u *Matrix, nulls []int) {
	m, n := u.Rows, u.Cols
	next := 0
	for _, jc := range nulls {
		for ; next < m; next++ {
			// Candidate e_next, orthogonalised against existing columns.
			cand := make([]complex128, m)
			cand[next] = 1
			for j := 0; j < n; j++ {
				if j == jc {
					continue
				}
				var dot complex128
				for i := 0; i < m; i++ {
					dot += cmplx.Conj(u.Data[i*n+j]) * cand[i]
				}
				if dot != 0 {
					for i := 0; i < m; i++ {
						cand[i] -= dot * u.Data[i*n+j]
					}
				}
			}
			nrm := colNorm(cand)
			if nrm > 1e-6 {
				inv := complex(1/nrm, 0)
				for i := 0; i < m; i++ {
					u.Data[i*n+jc] = cand[i] * inv
				}
				next++
				break
			}
		}
	}
}

// jacobiFallbackDim is the largest small dimension routed to the pooled
// one-sided Jacobi fallback of SVDTruncLazy; blocks this thin have at most
// one column pair per sweep, so the Gram machinery would cost more than it
// saves.
const jacobiFallbackDim = 2

// qrPrecondAspect is the aspect ratio (rows/cols after orienting tall)
// beyond which SVDTruncLazy QR-preconditions: a single thin QR collapses a
// strongly rectangular block to its small square R factor, and every later
// stage — Gram formation, eigensolve, re-orthonormalisation — runs at the
// small dimension.
const qrPrecondAspect = 2

// jacobiEigHerm diagonalises the Hermitian matrix held in ws.gram in place
// with two-sided Jacobi rotations, accumulating eigenvectors into ws.eigV
// with eigenvector j stored in ROW j (so every update streams contiguously).
// It assumes exact hermiticity (the caller builds A†A, or EigHermitian
// symmetrises its input) and exploits it per rotation: only rows p and q
// are rotated (contiguous), the 2×2 pivot block is set from the closed
// forms, and columns p and q are restored as conjugate mirrors of the fresh
// rows — roughly a third fewer flops than a generic two-sided similarity
// update and no strided arithmetic. Stops as soon as a sweep applies no rotation.
func jacobiEigHerm(ws *Workspace) {
	g := &ws.gram
	n := g.Rows
	vt := ws.eigV.Reuse(n, n)
	for i := 0; i < n; i++ {
		vt.Data[i*n+i] = 1
	}
	scale := g.MaxAbs()
	if scale == 0 {
		return
	}
	thresh2 := (1e-16 * scale) * (1e-16 * scale)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			gp := g.Data[p*n : (p+1)*n]
			for q := p + 1; q < n; q++ {
				apq := gp[q]
				re, im := real(apq), imag(apq)
				mag2 := re*re + im*im
				if mag2 <= thresh2 {
					continue
				}
				mag := math.Sqrt(mag2)
				app := real(gp[p])
				aqq := real(g.Data[q*n+q])
				e := complex(re/mag, -im/mag) // e^{−iφ} = conj(apq)/|apq|
				tau := (aqq - app) / (2 * mag)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				cc, ss := complex(c, 0), complex(s, 0)
				ec := cmplx.Conj(e)

				// Rows p, q ← J†·(rows of W): contiguous streams.
				gq := g.Data[q*n : (q+1)*n]
				ca, cb := ss*ec, cc*ec
				for j := 0; j < n; j++ {
					wp, wq := gp[j], gq[j]
					gp[j] = cc*wp - ca*wq
					gq[j] = ss*wp + cb*wq
				}
				// Pivot block from the closed forms (exact annihilation).
				tmag := t * mag
				gp[p] = complex(app-tmag, 0)
				gq[q] = complex(aqq+tmag, 0)
				gp[q] = 0
				gq[p] = 0
				// Columns p, q ← conjugate mirror of the fresh rows.
				for i := 0; i < n; i++ {
					if i == p || i == q {
						continue
					}
					row := g.Data[i*n : (i+1)*n]
					wp, wq := gp[i], gq[i]
					row[p] = complex(real(wp), -imag(wp))
					row[q] = complex(real(wq), -imag(wq))
				}
				// Eigenvector rows (V ← V·J in transposed storage).
				vp := vt.Data[p*n : (p+1)*n]
				vq := vt.Data[q*n : (q+1)*n]
				va, vb := ss*e, cc*e
				for j := 0; j < n; j++ {
					a, b := vp[j], vq[j]
					vp[j] = cc*a - va*b
					vq[j] = ss*a + vb*b
				}
				rotated = true
			}
		}
		if !rotated {
			return
		}
	}
}

// insertionSortDesc sorts idx so vals[idx[i]] is descending, without
// allocating (the eigen blocks are small enough that O(n²) is negligible
// next to the O(n³) eigensolve it follows).
func insertionSortDesc(vals []float64, idx []int) {
	for i := 1; i < len(idx); i++ {
		cur := idx[i]
		key := vals[cur]
		j := i - 1
		for j >= 0 && vals[idx[j]] < key {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = cur
	}
}

// svdJacobiWS is the one-sided Jacobi core (the only copy — SVD delegates
// here through a throwaway workspace): column storage, V accumulation and
// outputs all live in grow-only workspace buffers, which is what lets
// SVDTruncLazy's small-block fallback run allocation-free. Requires m ≥ n.
func svdJacobiWS(ws *Workspace, a *Matrix) SVDResult {
	m, n := a.Rows, a.Cols
	colsFlat := growC(&ws.colsFlat, m*n)
	vcolsFlat := growC(&ws.vcolsFlat, n*n)
	if cap(ws.cols) < n {
		ws.cols = make([][]complex128, n)
		ws.vcols = make([][]complex128, n)
	}
	cols := ws.cols[:n]
	vcols := ws.vcols[:n]
	for j := 0; j < n; j++ {
		cols[j] = colsFlat[j*m : (j+1)*m]
		vcols[j] = vcolsFlat[j*n : (j+1)*n]
		for i := 0; i < m; i++ {
			cols[j][i] = a.Data[i*n+j]
		}
		for i := 0; i < n; i++ {
			vcols[j][i] = 0
		}
		vcols[j][j] = 1
	}
	svdSweepsSerial(cols, vcols)

	vals := growF(&ws.evals, n)
	idx := growI(&ws.eidx, n)
	for j := 0; j < n; j++ {
		vals[j] = colNorm(cols[j])
		idx[j] = j
	}
	insertionSortDesc(vals, idx)

	u := ws.jacU.Reuse(m, n)
	v := ws.jacV.Reuse(n, n)
	s := growF(&ws.jacS, n)
	sigMax := vals[idx[0]]
	nullTol := sigMax * 1e-300
	var nullCols []int
	for jj, src := range idx {
		sigma := vals[src]
		s[jj] = sigma
		if sigma > nullTol && sigma > 0 {
			inv := complex(1/sigma, 0)
			for i := 0; i < m; i++ {
				u.Data[i*n+jj] = cols[src][i] * inv
			}
		} else {
			nullCols = append(nullCols, jj)
		}
		for i := 0; i < n; i++ {
			v.Data[i*n+jj] = vcols[src][i]
		}
	}
	if len(nullCols) > 0 {
		completeOrthonormal(u, nullCols)
	}
	return SVDResult{U: u, S: s, V: v}
}

// Rank returns the number of singular values above tol·S[0]. A zero matrix
// has rank 0.
func (r SVDResult) Rank(tol float64) int {
	if len(r.S) == 0 || r.S[0] == 0 {
		return 0
	}
	cut := tol * r.S[0]
	k := 0
	for _, s := range r.S {
		if s > cut {
			k++
		}
	}
	return k
}

// Reconstruct returns U · diag(S) · V†, for testing round-trips.
func (r SVDResult) Reconstruct() *Matrix {
	us := r.U.Clone()
	for j, s := range r.S {
		for i := 0; i < us.Rows; i++ {
			us.Data[i*us.Cols+j] *= complex(s, 0)
		}
	}
	return MatMul(us, r.V.ConjTranspose())
}

// Truncate returns a copy of the decomposition keeping only the first keep
// singular triplets, along with the discarded weight Σ_{i≥keep} S[i]². The
// discarded weight is exactly the squared overlap error 1 − |⟨ψ_ideal,
// ψ_trunc⟩|² used by the paper's equation (8) when the MPS is in canonical
// form.
func (r SVDResult) Truncate(keep int) (SVDResult, float64) {
	if keep < 0 {
		keep = 0
	}
	if keep > len(r.S) {
		keep = len(r.S)
	}
	var discarded float64
	for _, s := range r.S[keep:] {
		discarded += s * s
	}
	u := NewMatrix(r.U.Rows, keep)
	v := NewMatrix(r.V.Rows, keep)
	for i := 0; i < r.U.Rows; i++ {
		copy(u.Data[i*keep:(i+1)*keep], r.U.Data[i*r.U.Cols:i*r.U.Cols+keep])
	}
	for i := 0; i < r.V.Rows; i++ {
		copy(v.Data[i*keep:(i+1)*keep], r.V.Data[i*r.V.Cols:i*r.V.Cols+keep])
	}
	s := make([]float64, keep)
	copy(s, r.S[:keep])
	return SVDResult{U: u, S: s, V: v}, discarded
}
