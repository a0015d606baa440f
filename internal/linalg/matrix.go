// Package linalg provides dense complex linear algebra primitives built from
// scratch on the standard library: matrix storage, multiplication, Householder
// QR, one-sided Jacobi SVD and a Hermitian Jacobi eigensolver.
//
// These kernels are the numeric substrate for the tensor-network simulator in
// internal/mps. The paper's stack delegates to LAPACK (ITensors) and
// cuTensorNet; here everything is implemented directly so that the simulator
// is self-contained and auditable. Numerical quality is enforced by
// property-based tests (reconstruction and orthogonality to near machine
// precision).
//
// All matrices are dense, row-major, complex128.
//
// The dense products (MatMulInto, MatMulAdjAInto and the truncation SVD's
// Gram) run their inner loop through one row update, axpy:
// dst[j] += a·src[j]. On amd64 CPUs with AVX (CPUID plus XGETBV, checked
// once at init) rows of at least axpyMinLen = 8 values go to an assembly
// kernel holding two complex128 values per YMM register; shorter rows, CPUs
// without AVX and every other GOARCH run the Go loop. The kernel forms each
// product as Go does, two rounded products and then one rounded sum or
// difference, and uses no FMA, whose single rounding would change the bits:
// the path taken never changes a result.
package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// Matrix is a dense row-major complex matrix.
//
// The zero value is not usable; construct with NewMatrix or friends. Data is
// owned by the matrix unless documented otherwise; Clone before mutating a
// matrix that may be shared.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero-initialised rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid matrix shape %d×%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// FromSlice wraps the given data (row-major) in a Matrix. The slice is used
// directly, not copied. Panics if len(data) != rows*cols.
func FromSlice(rows, cols int, data []complex128) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: FromSlice got %d entries for %d×%d matrix", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Random returns a rows×cols matrix with entries whose real and imaginary
// parts are drawn i.i.d. from the standard normal distribution of rng.
func Random(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

// RandomUnitary returns a Haar-ish random n×n unitary obtained by
// QR-decomposing a Ginibre matrix and fixing the phases of R's diagonal.
func RandomUnitary(rng *rand.Rand, n int) *Matrix {
	g := Random(rng, n, n)
	q, r := QR(g)
	// Multiply column j of Q by phase(R[j][j]) to make the distribution
	// invariant (standard Haar correction).
	for j := 0; j < n; j++ {
		d := r.At(j, j)
		ph := complex(1, 0)
		if cmplx.Abs(d) > 0 {
			ph = d / complex(cmplx.Abs(d), 0)
		}
		for i := 0; i < n; i++ {
			q.Set(i, j, q.At(i, j)*ph)
		}
	}
	return q
}

// At returns entry (i, j). Panics on out-of-range indices.
func (m *Matrix) At(i, j int) complex128 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range for %d×%d", i, j, m.Rows, m.Cols))
	}
	return m.Data[i*m.Cols+j]
}

// Set assigns entry (i, j). Panics on out-of-range indices.
func (m *Matrix) Set(i, j int, v complex128) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range for %d×%d", i, j, m.Rows, m.Cols))
	}
	m.Data[i*m.Cols+j] = v
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Row returns the i-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []complex128 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// ConjTranspose returns the Hermitian adjoint m†.
func (m *Matrix) ConjTranspose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = cmplx.Conj(v)
		}
	}
	return t
}

// Transpose returns the plain (non-conjugating) transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Scale multiplies every entry of m by s in place and returns m.
func (m *Matrix) Scale(s complex128) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// Add returns m + b as a new matrix. Panics on shape mismatch.
func (m *Matrix) Add(b *Matrix) *Matrix {
	m.mustSameShape(b, "Add")
	c := NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		c.Data[i] = m.Data[i] + b.Data[i]
	}
	return c
}

// Sub returns m − b as a new matrix. Panics on shape mismatch.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	m.mustSameShape(b, "Sub")
	c := NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		c.Data[i] = m.Data[i] - b.Data[i]
	}
	return c
}

func (m *Matrix) mustSameShape(b *Matrix, op string) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: %s shape mismatch %d×%d vs %d×%d", op, m.Rows, m.Cols, b.Rows, b.Cols))
	}
}

// FrobeniusNorm returns sqrt(Σ |a_ij|²).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// MaxAbs returns max_ij |a_ij|, or 0 for an empty matrix.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := cmplx.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// IsUnitary reports whether m†m ≈ I within the given entrywise tolerance.
// Only meaningful for square matrices; non-square matrices report isometry
// (columns orthonormal) when Rows ≥ Cols.
func (m *Matrix) IsUnitary(tol float64) bool {
	p := MatMul(m.ConjTranspose(), m)
	for i := 0; i < p.Rows; i++ {
		for j := 0; j < p.Cols; j++ {
			want := complex(0, 0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(p.At(i, j)-want) > tol {
				return false
			}
		}
	}
	return true
}

// IsHermitian reports whether m ≈ m† within tol. Requires a square matrix.
func (m *Matrix) IsHermitian(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i; j < m.Cols; j++ {
			if cmplx.Abs(m.At(i, j)-cmplx.Conj(m.At(j, i))) > tol {
				return false
			}
		}
	}
	return true
}

// EqualApprox reports whether m and b have the same shape and all entries
// agree within tol.
func (m *Matrix) EqualApprox(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i := range m.Data {
		if cmplx.Abs(m.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a small matrix for debugging; large matrices are summarised.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix{%d×%d, ‖·‖F=%.4g}", m.Rows, m.Cols, m.FrobeniusNorm())
	}
	s := fmt.Sprintf("Matrix %d×%d [\n", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		s += " "
		for j := 0; j < m.Cols; j++ {
			v := m.At(i, j)
			s += fmt.Sprintf(" (%.3g%+.3gi)", real(v), imag(v))
		}
		s += "\n"
	}
	return s + "]"
}
