package kernel

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// ValidateGram checks the structural invariants a quantum fidelity kernel
// must satisfy: square shape, finite entries, symmetry, entries in
// [0, 1+tol], unit diagonal (up to truncation error), and — when checkPSD is
// set — positive semidefiniteness of the matrix (smallest eigenvalue ≥ −tol),
// which is what makes the SVM dual problem convex. PSD checking diagonalises the matrix,
// so reserve it for modest sizes.
func ValidateGram(k [][]float64, tol float64, checkPSD bool) error {
	n := len(k)
	if n == 0 {
		return fmt.Errorf("kernel: empty Gram matrix")
	}
	for i, row := range k {
		if len(row) != n {
			return fmt.Errorf("kernel: row %d has %d entries, want %d", i, len(row), n)
		}
		// NaN fails every comparison below, so non-finite entries are
		// rejected up front.
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("kernel: entry (%d,%d)=%v is not finite", i, j, v)
			}
		}
	}
	for i := 0; i < n; i++ {
		if math.Abs(k[i][i]-1) > tol {
			return fmt.Errorf("kernel: diagonal entry %d is %v, want 1±%v", i, k[i][i], tol)
		}
		for j := i + 1; j < n; j++ {
			if math.Abs(k[i][j]-k[j][i]) > tol {
				return fmt.Errorf("kernel: asymmetry at (%d,%d): %v vs %v", i, j, k[i][j], k[j][i])
			}
			if k[i][j] < -tol || k[i][j] > 1+tol {
				return fmt.Errorf("kernel: entry (%d,%d)=%v outside [0,1]", i, j, k[i][j])
			}
		}
	}
	if checkPSD {
		m := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, complex(k[i][j], 0))
			}
		}
		mn, err := linalg.MinEigenvalueHermitian(m)
		if err != nil {
			return fmt.Errorf("kernel: PSD check failed: %w", err)
		}
		if mn < -tol*float64(n) {
			return fmt.Errorf("kernel: Gram matrix not PSD: min eigenvalue %v", mn)
		}
	}
	return nil
}

// Concentration summarises how concentrated the off-diagonal kernel values
// are: their mean and variance. Exponential kernel concentration (the
// paper's Table III discussion and Ref. [15]) manifests as off-diagonal
// entries collapsing toward a constant with vanishing variance as circuit
// depth grows.
type Concentration struct {
	Mean, Var float64
}

// MeasureConcentration computes off-diagonal statistics of a Gram matrix.
func MeasureConcentration(k [][]float64) Concentration {
	n := len(k)
	if n < 2 {
		return Concentration{}
	}
	var sum float64
	cnt := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				sum += k[i][j]
				cnt++
			}
		}
	}
	mean := sum / float64(cnt)
	var ss float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				d := k[i][j] - mean
				ss += d * d
			}
		}
	}
	return Concentration{Mean: mean, Var: ss / float64(cnt)}
}
