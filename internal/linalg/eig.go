package linalg

import (
	"fmt"
	"math/cmplx"
)

// EigResult holds the eigendecomposition of a Hermitian matrix:
// a = V · diag(Values) · V†, with real eigenvalues sorted descending and V's
// columns the corresponding orthonormal eigenvectors.
type EigResult struct {
	Values  []float64
	Vectors *Matrix
}

// EigHermitian diagonalises a Hermitian matrix with the eigensolver the
// truncation SVD uses on its Gram block (cyclic Jacobi below
// blockedEigMinDim, Householder tridiagonalisation + implicit-shift QL at
// or above it). Used to validate kernel matrices (positive
// semidefiniteness) and in tests of the SVD.
//
// Panics if a is not square; returns an error if an entry is not finite or
// if a is not Hermitian within 1e-10 of its scale.
func EigHermitian(a *Matrix) (EigResult, error) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("linalg: EigHermitian needs a square matrix, got %d×%d", a.Rows, a.Cols))
	}
	n := a.Rows
	for k, v := range a.Data {
		if cmplx.IsNaN(v) || cmplx.IsInf(v) {
			return EigResult{}, fmt.Errorf("linalg: EigHermitian input entry (%d,%d) = %v is not finite", k/n, k%n, v)
		}
	}
	scale := a.MaxAbs()
	if scale == 0 {
		return EigResult{Values: make([]float64, n), Vectors: Identity(n)}, nil
	}
	if !a.IsHermitian(1e-10 * scale) {
		return EigResult{}, fmt.Errorf("linalg: EigHermitian input is not Hermitian (tol %.3g)", 1e-10*scale)
	}
	var ws Workspace
	// Symmetrise exactly: the eigensolvers assume an exactly Hermitian block.
	w := ws.gram.Reuse(n, n)
	for i := 0; i < n; i++ {
		w.Data[i*n+i] = complex(real(a.Data[i*n+i]), 0)
		for j := i + 1; j < n; j++ {
			avg := (a.Data[i*n+j] + cmplx.Conj(a.Data[j*n+i])) / 2
			w.Data[i*n+j] = avg
			w.Data[j*n+i] = cmplx.Conj(avg)
		}
	}
	vecs := gramEigSortV(&ws, n)
	vals := make([]float64, n)
	for jj, src := range ws.eidx {
		vals[jj] = ws.evals[src]
	}
	return EigResult{Values: vals, Vectors: vecs}, nil
}

// MinEigenvalueHermitian returns the smallest eigenvalue of a Hermitian
// matrix; a convenience used to check positive semidefiniteness of kernel
// Gram matrices (smallest eigenvalue ≥ −tol).
func MinEigenvalueHermitian(a *Matrix) (float64, error) {
	r, err := EigHermitian(a)
	if err != nil {
		return 0, err
	}
	if len(r.Values) == 0 {
		return 0, nil
	}
	return r.Values[len(r.Values)-1], nil
}
