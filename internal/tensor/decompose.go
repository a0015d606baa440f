package tensor

import (
	"repro/internal/linalg"
)

// QRDecompose matricizes t with the given row axes and returns Q, R tensors
// such that t = Q·R with Q an isometry. Used for MPS canonicalisation.
func QRDecompose(t *Tensor, rowAxes []int) (q, r *Tensor) {
	qm, rm := linalg.QR(t.Matricize(rowAxes...))
	rowShape, colShape := factorShapes(t, rowAxes, qm.Cols)
	return FromData(qm.Data, rowShape...), FromData(rm.Data, colShape...)
}

// LQDecompose matricizes t and returns L, Q tensors such that t = L·Q with
// Q having orthonormal rows. Used for right-canonicalisation.
func LQDecompose(t *Tensor, rowAxes []int) (l, q *Tensor) {
	lm, qm := linalg.LQ(t.Matricize(rowAxes...))
	rowShape, colShape := factorShapes(t, rowAxes, lm.Cols)
	return FromData(lm.Data, rowShape...), FromData(qm.Data, colShape...)
}

// factorShapes returns the tensor shapes of the two factors of t matricized
// with the given row axes and split at inner dimension k: (rowAxes dims...,
// k) and (k, remaining axes' dims...).
func factorShapes(t *Tensor, rowAxes []int, k int) (rowShape, colShape []int) {
	rowShape = make([]int, 0, len(rowAxes)+1)
	for _, ax := range rowAxes {
		rowShape = append(rowShape, t.Shape[ax])
	}
	rowShape = append(rowShape, k)

	colShape = []int{k}
	isRow := make(map[int]bool, len(rowAxes))
	for _, ax := range rowAxes {
		isRow[ax] = true
	}
	for ax := 0; ax < t.Rank(); ax++ {
		if !isRow[ax] {
			colShape = append(colShape, t.Shape[ax])
		}
	}
	return rowShape, colShape
}
