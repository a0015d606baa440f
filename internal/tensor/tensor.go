// Package tensor implements dense complex tensors of arbitrary rank with the
// operations needed for tensor-network simulation: reshaping, axis
// permutation, matricization and pairwise contraction along shared bonds.
//
// Terminology follows the paper (section II-B): each axis of the array is a
// "bond" and the length of the axis is its "bond dimension". The total number
// of entries of a tensor is the product of its bond dimensions, and a matrix
// is just a tensor with two bonds. Contraction (the paper's equation (6)) is
// realised by permuting the contracted bonds to the inside and delegating to
// a dense matrix multiply; decompositions (SVD/QR) are obtained by first
// matricizing the tensor (equation (7)) and calling into internal/linalg.
package tensor

import (
	"fmt"

	"repro/internal/linalg"
)

// Tensor is a dense complex tensor stored row-major (the last axis varies
// fastest). The zero value is unusable; construct with New or FromData.
type Tensor struct {
	Shape []int
	Data  []complex128
}

// New returns a zero tensor with the given shape. A tensor with no axes is a
// scalar holding one entry.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: make([]complex128, n)}
}

// FromData wraps data (not copied) in a tensor of the given shape.
// Panics if the length does not match the shape volume.
func FromData(data []complex128, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: %d entries cannot fill shape %v (need %d)", len(data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: data}
}

// Rank returns the number of bonds (axes).
func (t *Tensor) Rank() int { return len(t.Shape) }

// Size returns the total number of entries.
func (t *Tensor) Size() int { return len(t.Data) }

// Bytes returns the memory footprint of the tensor's payload in bytes
// (16 bytes per complex128 entry). Used by the MPS memory ledger that
// reproduces the paper's Fig. 6 and Table I memory columns.
func (t *Tensor) Bytes() int64 { return int64(len(t.Data)) * 16 }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// strides returns the row-major stride of each axis.
func (t *Tensor) strides() []int {
	st := make([]int, len(t.Shape))
	acc := 1
	for i := len(t.Shape) - 1; i >= 0; i-- {
		st[i] = acc
		acc *= t.Shape[i]
	}
	return st
}

// offset converts a multi-index into a flat offset, validating bounds.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	acc := 1
	for i := len(t.Shape) - 1; i >= 0; i-- {
		if idx[i] < 0 || idx[i] >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off += idx[i] * acc
		acc *= t.Shape[i]
	}
	return off
}

// At returns the entry at the multi-index.
func (t *Tensor) At(idx ...int) complex128 { return t.Data[t.offset(idx)] }

// Set assigns the entry at the multi-index.
func (t *Tensor) Set(v complex128, idx ...int) { t.Data[t.offset(idx)] = v }

// Reuse3 reshapes t in place into a rank-3 tensor (a, b, c), growing the
// backing array only when its capacity is insufficient and reusing the Shape
// slice when the rank already matches. Entry contents are unspecified
// afterwards — the caller overwrites every entry. This is the grow-only
// site-buffer primitive of the MPS gate engine: steady-state gate
// application settles at the largest shape seen per site and stops
// allocating.
func (t *Tensor) Reuse3(a, b, c int) *Tensor {
	if a < 0 || b < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: Reuse3 with negative shape (%d,%d,%d)", a, b, c))
	}
	n := a * b * c
	if cap(t.Data) < n {
		t.Data = make([]complex128, n)
	} else {
		t.Data = t.Data[:n]
	}
	if len(t.Shape) == 3 {
		t.Shape[0], t.Shape[1], t.Shape[2] = a, b, c
	} else {
		t.Shape = []int{a, b, c}
	}
	return t
}

// Transpose returns a new tensor with axes permuted: the i-th axis of the
// result is axis perm[i] of t.
func (t *Tensor) Transpose(perm ...int) *Tensor {
	r := t.Rank()
	if len(perm) != r {
		panic(fmt.Sprintf("tensor: permutation %v has wrong length for rank %d", perm, r))
	}
	seen := make([]bool, r)
	newShape := make([]int, r)
	for i, p := range perm {
		if p < 0 || p >= r || seen[p] {
			panic(fmt.Sprintf("tensor: invalid permutation %v", perm))
		}
		seen[p] = true
		newShape[i] = t.Shape[p]
	}
	out := New(newShape...)
	if len(t.Data) == 0 {
		return out
	}
	oldStrides := t.strides()
	// Walk the output in order, tracking the corresponding input offset.
	idx := make([]int, r)
	inStride := make([]int, r)
	for i, p := range perm {
		inStride[i] = oldStrides[p]
	}
	inOff := 0
	for outOff := range out.Data {
		out.Data[outOff] = t.Data[inOff]
		// Increment the multi-index odometer (last axis fastest).
		for ax := r - 1; ax >= 0; ax-- {
			idx[ax]++
			inOff += inStride[ax]
			if idx[ax] < newShape[ax] {
				break
			}
			inOff -= idx[ax] * inStride[ax]
			idx[ax] = 0
		}
	}
	return out
}

// Conj returns the entrywise complex conjugate as a new tensor.
func (t *Tensor) Conj() *Tensor {
	c := New(t.Shape...)
	for i, v := range t.Data {
		c.Data[i] = complex(real(v), -imag(v))
	}
	return c
}

// Scale multiplies all entries by s in place and returns t.
func (t *Tensor) Scale(s complex128) *Tensor {
	for i := range t.Data {
		t.Data[i] *= s
	}
	return t
}

// Norm returns the Frobenius norm sqrt(Σ|t_i|²); for a normalised quantum
// state tensor this is 1.
func (t *Tensor) Norm() float64 {
	return FromMatrixView(t).FrobeniusNorm()
}

// FromMatrixView views the whole tensor as a 1×N matrix (shared storage) so
// matrix helpers can be reused.
func FromMatrixView(t *Tensor) *linalg.Matrix {
	return linalg.FromSlice(1, len(t.Data), t.Data)
}

// Matricize reshapes (with permutation if needed) the tensor into a matrix
// whose rows enumerate the axes in rowAxes and whose columns enumerate the
// remaining axes in ascending order. The returned matrix copies data only if
// a permutation is required.
func (t *Tensor) Matricize(rowAxes ...int) *linalg.Matrix {
	r := t.Rank()
	isRow := make([]bool, r)
	for _, a := range rowAxes {
		if a < 0 || a >= r {
			panic(fmt.Sprintf("tensor: Matricize axis %d out of range for rank %d", a, r))
		}
		if isRow[a] {
			panic(fmt.Sprintf("tensor: Matricize duplicate axis %d", a))
		}
		isRow[a] = true
	}
	perm := make([]int, 0, r)
	perm = append(perm, rowAxes...)
	colAxes := make([]int, 0, r-len(rowAxes))
	for a := 0; a < r; a++ {
		if !isRow[a] {
			colAxes = append(colAxes, a)
		}
	}
	perm = append(perm, colAxes...)
	rows, cols := 1, 1
	for _, a := range rowAxes {
		rows *= t.Shape[a]
	}
	for _, a := range colAxes {
		cols *= t.Shape[a]
	}
	// Fast path: already in the right order.
	ordered := true
	for i, p := range perm {
		if i != p {
			ordered = false
			break
		}
	}
	src := t
	if !ordered {
		src = t.Transpose(perm...)
	}
	return linalg.FromSlice(rows, cols, src.Data)
}

// EqualApprox reports shape equality and entrywise agreement within tol.
func (t *Tensor) EqualApprox(o *Tensor, tol float64) bool {
	if t.Rank() != o.Rank() {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	for i := range t.Data {
		d := t.Data[i] - o.Data[i]
		if real(d)*real(d)+imag(d)*imag(d) > tol*tol {
			return false
		}
	}
	return true
}

func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor{shape=%v, %d entries}", t.Shape, len(t.Data))
}
