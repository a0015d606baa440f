package tensor

import (
	"fmt"

	"repro/internal/linalg"
)

// Contract contracts tensors a and b along the bond pairs (axesA[i],
// axesB[i]), implementing the paper's equation (6) in full generality. The
// result's bonds are a's free bonds (in order) followed by b's free bonds
// (in order).
//
// The contraction is realised as T_a → matrix (free × shared), T_b → matrix
// (shared × free), then a dense matrix product, using the serial matmul
// kernel. Callers that need a specific execution backend (the CPU/GPU
// crossover experiments) should use ContractWith.
func Contract(a, b *Tensor, axesA, axesB []int) *Tensor {
	return ContractWith(a, b, axesA, axesB, linalg.MatMul)
}

// MatMulFunc is the pluggable dense-product kernel used by ContractWith;
// internal/backend supplies serial and parallel implementations.
type MatMulFunc func(x, y *linalg.Matrix) *linalg.Matrix

// ContractWith is Contract with an explicit matrix-multiplication kernel.
func ContractWith(a, b *Tensor, axesA, axesB []int, mul MatMulFunc) *Tensor {
	if len(axesA) != len(axesB) {
		panic(fmt.Sprintf("tensor: Contract axis lists differ in length: %v vs %v", axesA, axesB))
	}
	for i := range axesA {
		da, db := dimAt(a, axesA[i]), dimAt(b, axesB[i])
		if da != db {
			panic(fmt.Sprintf("tensor: Contract bond dimension mismatch on pair %d: %d vs %d", i, da, db))
		}
	}

	freeA := freeAxes(a.Rank(), axesA)
	freeB := freeAxes(b.Rank(), axesB)

	// A → (freeA..., shared...) and B → (shared..., freeB...).
	permA := append(append([]int{}, freeA...), axesA...)
	permB := append(append([]int{}, axesB...), freeB...)
	ta := a.Transpose(permA...)
	tb := b.Transpose(permB...)

	rows, shared, cols := 1, 1, 1
	outShape := make([]int, 0, len(freeA)+len(freeB))
	for _, ax := range freeA {
		rows *= a.Shape[ax]
		outShape = append(outShape, a.Shape[ax])
	}
	for _, ax := range axesA {
		shared *= a.Shape[ax]
	}
	for _, ax := range freeB {
		cols *= b.Shape[ax]
		outShape = append(outShape, b.Shape[ax])
	}

	ma := linalg.FromSlice(rows, shared, ta.Data)
	mb := linalg.FromSlice(shared, cols, tb.Data)
	mc := mul(ma, mb)
	return FromData(mc.Data, outShape...)
}

func dimAt(t *Tensor, ax int) int {
	if ax < 0 || ax >= t.Rank() {
		panic(fmt.Sprintf("tensor: contraction axis %d out of range for rank %d", ax, t.Rank()))
	}
	return t.Shape[ax]
}

func freeAxes(rank int, bound []int) []int {
	isBound := make([]bool, rank)
	for _, a := range bound {
		if isBound[a] {
			panic(fmt.Sprintf("tensor: duplicate contraction axis %d", a))
		}
		isBound[a] = true
	}
	free := make([]int, 0, rank-len(bound))
	for a := 0; a < rank; a++ {
		if !isBound[a] {
			free = append(free, a)
		}
	}
	return free
}
