package linalg

import (
	"math"
	"math/cmplx"
)

// blockedEigMinDim is the block dimension at and above which gramEigSortV
// routes the eigensolve through the blocked tridiagonal path instead of
// cyclic Jacobi. Measured crossover on the Fig. 5 workload (χ≈59, theta
// blocks ~120×120): tridiagonalisation + implicit-shift QL runs the O(n³)
// reduction once, while Jacobi pays ~8–10 full sweeps of rotations, so the
// blocked path wins from a few dozen columns up and widens with n. Blocks
// below the threshold keep Jacobi, whose per-rotation cost is unbeatable
// when a sweep holds only a handful of pairs.
const blockedEigMinDim = 32

// qlEps is the relative deflation threshold of the implicit-shift QL
// iteration: a subdiagonal entry is treated as zero when it is negligible
// against its neighbouring diagonal mass.
const qlEps = 2.220446049250313e-16

// qlTiny is the absolute deflation floor, guarding the pathological case of
// a subdiagonal entry with numerically zero neighbouring diagonals.
const qlTiny = 1e-300

// qlMaxIter bounds the QL iterations per eigenvalue; well-scaled symmetric
// tridiagonals converge in 2–3, so exceeding this signals a pathological
// input and the caller falls back to the unconditionally convergent Jacobi.
const qlMaxIter = 50

// blockedEigHerm diagonalises the Hermitian matrix held in ws.gram with
// the cache-blocked direct path: Householder tridiagonalisation (one O(n³)
// reduction with unit-stride panel updates instead of Jacobi's O(n³) per
// sweep), phase-scaling of the complex subdiagonal to a real symmetric
// tridiagonal, and implicit-shift QL iteration with eigenvector accumulation.
// The postcondition matches jacobiEigHerm exactly: eigenvalues on ws.gram's
// diagonal, eigenvector j in ROW j of ws.eigV. Returns false (with ws.gram
// restored to its input) if QL failed to converge, so the caller can fall
// back to Jacobi; this never fires on the Gram matrices A†A the SVD path
// builds, but keeps the engine unconditionally safe.
func blockedEigHerm(ws *Workspace) bool {
	g := &ws.gram
	n := g.Rows
	if n < 2 {
		// Postcondition for the degenerate sizes: identity eigenvectors.
		vt := ws.eigV.Reuse(n, n)
		for i := 0; i < n; i++ {
			vt.Data[i*n+i] = 1
		}
		return true
	}
	// Snapshot the input: tridiagonalisation destroys g, and the Jacobi
	// fallback needs the original on the (never-observed) non-convergence
	// path.
	saved := growC(&ws.triSave, n*n)
	copy(saved, g.Data)

	tridiagonalize(ws, n)

	// Phase-scale the complex Hermitian tridiagonal to a real symmetric one:
	// with U = diag(u) chosen so each subdiagonal picks up the conjugate of
	// its own phase, U†TU has subdiagonal |e| and the same (real) diagonal.
	d := growF(&ws.triD, n)
	e := growF(&ws.triE, n)
	u := growC(&ws.triU, n)
	u[0] = 1
	for i := 0; i < n; i++ {
		d[i] = real(g.Data[i*n+i])
	}
	for i := 0; i+1 < n; i++ {
		ec := g.Data[(i+1)*n+i]
		a := cmplx.Abs(ec)
		e[i] = a
		if a > 0 {
			u[i+1] = u[i] * (ec / complex(a, 0))
		} else {
			u[i+1] = u[i]
		}
	}
	e[n-1] = 0

	// Eigenvectors of A are the columns of (Q·U)·Z, Z the accumulated QL
	// rotations; seed the transposed accumulator with (Q·U)ᵀ so each QL
	// rotation combines two contiguous rows.
	q := &ws.triQ
	vt := ws.eigV.Reuse(n, n)
	for j := 0; j < n; j++ {
		row := vt.Data[j*n : (j+1)*n]
		uj := u[j]
		for i := 0; i < n; i++ {
			row[i] = q.Data[i*n+j] * uj
		}
	}

	if !tqlImplicit(d, e, vt, n) {
		copy(g.Data, saved)
		return false
	}
	for i := 0; i < n; i++ {
		g.Data[i*n+i] = complex(d[i], 0)
	}
	return true
}

// tridiagonalize reduces the Hermitian matrix in ws.gram to complex Hermitian
// tridiagonal form in place via Householder similarity transformations and
// accumulates the full unitary Q (A = Q·T·Q†) into ws.triQ. The reflector
// vectors are parked in ws.triV so the accumulation pass can replay them in
// reverse over the shrinking trailing block only.
func tridiagonalize(ws *Workspace, n int) {
	g := ws.gram.Data
	vs := growC(&ws.triV, n*n)
	betas := growF(&ws.triBeta, n)
	p := growC(&ws.triP, n)

	for k := 0; k+2 < n; k++ {
		nk := n - k - 1
		v := vs[k*n : k*n+nk]
		betas[k] = 0
		var norm2 float64
		for i := k + 1; i < n; i++ {
			x := g[i*n+k]
			norm2 += real(x)*real(x) + imag(x)*imag(x)
		}
		if norm2 == 0 {
			continue
		}
		x0 := g[(k+1)*n+k]
		phase := complex(1, 0)
		if ab := cmplx.Abs(x0); ab > 0 {
			phase = x0 / complex(ab, 0)
		}
		alpha := -phase * complex(math.Sqrt(norm2), 0)
		for i := 0; i < nk; i++ {
			v[i] = g[(k+1+i)*n+k]
		}
		v[0] -= alpha
		var vnorm2 float64
		for _, vv := range v {
			vnorm2 += real(vv)*real(vv) + imag(vv)*imag(vv)
		}
		if vnorm2 == 0 {
			// Column already in tridiagonal form (x = α·e₁ exactly).
			continue
		}
		beta := 2 / vnorm2
		betas[k] = beta

		// Similarity update of the trailing block A₂ ← A₂ − v·w† − w·v†
		// with p = β·A₂·v and w = p − (β/2)(v†p)·v.
		pb := p[:nk]
		cb := complex(beta, 0)
		for i := 0; i < nk; i++ {
			row := g[(k+1+i)*n+k+1 : (k+1+i)*n+k+1+nk]
			var acc complex128
			for j, rv := range row {
				acc += rv * v[j]
			}
			pb[i] = cb * acc
		}
		var vp complex128
		for i, vv := range v {
			vp += complex(real(vv), -imag(vv)) * pb[i]
		}
		kc := complex(beta/2, 0) * vp
		for i := range pb {
			pb[i] -= kc * v[i]
		}
		for i := 0; i < nk; i++ {
			row := g[(k+1+i)*n+k+1 : (k+1+i)*n+k+1+nk]
			vi, wi := v[i], pb[i]
			for j := range row {
				wj := pb[j]
				vj := v[j]
				row[j] -= vi*complex(real(wj), -imag(wj)) + wi*complex(real(vj), -imag(vj))
			}
		}
		// Column k collapses to the single subdiagonal α (Hermitian mirror
		// on row k); everything below is annihilated by construction.
		g[(k+1)*n+k] = alpha
		g[k*n+k+1] = complex(real(alpha), -imag(alpha))
		for i := k + 2; i < n; i++ {
			g[i*n+k] = 0
			g[k*n+i] = 0
		}
	}

	// Accumulate Q = H₀·H₁⋯H_{n−3} by applying the reflectors to the
	// identity in reverse; at step k every touched factor is supported on
	// indices ≥ k+1, so columns ≤ k are still basis vectors and the update
	// stays on the trailing (n−k−1)² block.
	q := ws.triQ.Reuse(n, n)
	for i := 0; i < n; i++ {
		q.Data[i*n+i] = 1
	}
	w := p
	for k := n - 3; k >= 0; k-- {
		beta := betas[k]
		if beta == 0 {
			continue
		}
		nk := n - k - 1
		v := vs[k*n : k*n+nk]
		wb := w[:nk]
		for j := range wb {
			wb[j] = 0
		}
		for i := 0; i < nk; i++ {
			vi := v[i]
			if vi == 0 {
				continue
			}
			vc := complex(real(vi), -imag(vi))
			row := q.Data[(k+1+i)*n+k+1 : (k+1+i)*n+k+1+nk]
			for j, qv := range row {
				wb[j] += vc * qv
			}
		}
		cb := complex(beta, 0)
		for i := 0; i < nk; i++ {
			f := cb * v[i]
			if f == 0 {
				continue
			}
			row := q.Data[(k+1+i)*n+k+1 : (k+1+i)*n+k+1+nk]
			for j := range row {
				row[j] -= f * wb[j]
			}
		}
	}
}

// tqlImplicit runs implicit-shift QL iteration on the real symmetric
// tridiagonal (d, e), overwriting d with the (unsorted) eigenvalues and
// accumulating every rotation into the rows of vt (the transposed
// eigenvector matrix, so a rotation combines two contiguous complex rows).
// Returns false if any eigenvalue fails to deflate within qlMaxIter.
func tqlImplicit(d, e []float64, vt *Matrix, n int) bool {
	for l := 0; l < n; l++ {
		iter := 0
		for {
			m := l
			for m < n-1 {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= qlEps*dd || math.Abs(e[m]) < qlTiny {
					break
				}
				m++
			}
			if m == l {
				break
			}
			iter++
			if iter > qlMaxIter {
				return false
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c, p := 1.0, 1.0, 0.0
			i := m - 1
			for ; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				// Rotate eigenvector rows i and i+1 (real Givens on
				// complex rows — the blocked path's only per-rotation
				// O(n) work, against Jacobi's four).
				ri := vt.Data[i*n : (i+1)*n]
				ri1 := vt.Data[(i+1)*n : (i+2)*n]
				cs, ss := complex(c, 0), complex(s, 0)
				for j := 0; j < n; j++ {
					a, bb := ri[j], ri1[j]
					ri1[j] = ss*a + cs*bb
					ri[j] = cs*a - ss*bb
				}
			}
			if r == 0 && i >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return true
}
