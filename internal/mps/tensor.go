package mps

import "fmt"

// Tensor is a dense complex tensor stored row-major (the last axis varies
// fastest): in an MPS, the rank-3 site tensor (χ_left, 2, χ_right). Each axis
// is a "bond" and its length the "bond dimension" (paper, section II-B).
// The zero value is unusable; construct with NewTensor.
type Tensor struct {
	Shape []int
	Data  []complex128
}

// NewTensor returns a zero tensor with the given shape.
func NewTensor(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("mps: negative dimension in tensor shape %v", shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: make([]complex128, n)}
}

// Bytes returns the memory footprint of the tensor's payload in bytes
// (16 bytes per complex128 entry). Used by the MPS memory ledger that
// reproduces the paper's Fig. 6 and Table I memory columns.
func (t *Tensor) Bytes() int64 { return int64(len(t.Data)) * 16 }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := NewTensor(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// offset converts a multi-index into a flat offset, validating bounds.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("mps: index rank %d does not match tensor rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	acc := 1
	for i := len(t.Shape) - 1; i >= 0; i-- {
		if idx[i] < 0 || idx[i] >= t.Shape[i] {
			panic(fmt.Sprintf("mps: index %v out of range for tensor shape %v", idx, t.Shape))
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
// site-buffer primitive of the gate engine: steady-state gate application
// settles at the largest shape seen per site and stops allocating.
func (t *Tensor) Reuse3(a, b, c int) *Tensor {
	if a < 0 || b < 0 || c < 0 {
		panic(fmt.Sprintf("mps: Reuse3 with negative shape (%d,%d,%d)", a, b, c))
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
