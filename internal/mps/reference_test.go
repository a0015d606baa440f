package mps

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/linalg"
)

// This file holds the reference chain: the generic tensor-network
// operations the paper's simulator is written in (section II-B) — axis
// permutation, matricization (equation (7)), pairwise contraction along
// shared bonds (equation (6)), QR/LQ factors — and a gate path built from
// them with the plain one-sided Jacobi linalg.SVD. It materialises every
// intermediate and shares no code with the fused engine beyond truncationCut,
// so it is the oracle the engine tests compare against (applyReference).

// tensorFromData wraps data (not copied) in a tensor of the given shape.
// Panics if the length does not match the shape volume.
func tensorFromData(data []complex128, shape ...int) *Tensor {
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

func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor{shape=%v, %d entries}", t.Shape, len(t.Data))
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
	out := NewTensor(newShape...)
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
	c := NewTensor(t.Shape...)
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

// Norm returns the Frobenius norm sqrt(Σ|t_i|²).
func (t *Tensor) Norm() float64 {
	return linalg.FromSlice(1, len(t.Data), t.Data).FrobeniusNorm()
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

// Contract contracts tensors a and b along the bond pairs (axesA[i],
// axesB[i]), the paper's equation (6) in full generality, with the serial
// matmul kernel. The result's bonds are a's free bonds (in order) followed
// by b's free bonds (in order).
func Contract(a, b *Tensor, axesA, axesB []int) *Tensor {
	return ContractWith(a, b, axesA, axesB, linalg.MatMul)
}

// ContractWith is Contract with an explicit matrix-multiplication kernel:
// T_a → matrix (free × shared), T_b → matrix (shared × free), then one
// dense product.
func ContractWith(a, b *Tensor, axesA, axesB []int, mul func(x, y *linalg.Matrix) *linalg.Matrix) *Tensor {
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
	return tensorFromData(mc.Data, outShape...)
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

// QRDecompose matricizes t with the given row axes and returns Q, R tensors
// such that t = Q·R with Q an isometry.
func QRDecompose(t *Tensor, rowAxes []int) (q, r *Tensor) {
	qm, rm := linalg.QR(t.Matricize(rowAxes...))
	rowShape, colShape := factorShapes(t, rowAxes, qm.Cols)
	return tensorFromData(qm.Data, rowShape...), tensorFromData(rm.Data, colShape...)
}

// LQDecompose matricizes t and returns L, Q tensors such that t = L·Q with
// Q having orthonormal rows.
func LQDecompose(t *Tensor, rowAxes []int) (l, q *Tensor) {
	lm, qm := linalg.LQ(t.Matricize(rowAxes...))
	rowShape, colShape := factorShapes(t, rowAxes, lm.Cols)
	return tensorFromData(lm.Data, rowShape...), tensorFromData(qm.Data, colShape...)
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

// applyReference applies c to m gate by gate through the reference chain:
// no single-qubit fusion, fresh tensors for every intermediate, the full
// Jacobi SVD, and allocating canonicalisation. It follows the same algorithm
// as the engine — centre move, contraction, truncationCut on the spectrum —
// so its state, bond dimensions and truncation error are what the engine's
// must match.
func applyReference(m *MPS, c *circuit.Circuit) error {
	if c.NumQubits != m.N {
		return fmt.Errorf("mps: circuit on %d qubits applied to %d-qubit state", c.NumQubits, m.N)
	}
	for i, g := range c.Gates {
		if err := g.Validate(m.N); err != nil {
			return fmt.Errorf("mps: gate %d: %w", i, err)
		}
		switch len(g.Qubits) {
		case 1:
			referenceApply1(m, g.Mat, g.Qubits[0])
		case 2:
			if err := checkAdjacent(g); err != nil {
				return fmt.Errorf("mps: gate %d: %w", i, err)
			}
			a, b := g.Qubits[0], g.Qubits[1]
			mat := g.Mat
			if a > b {
				// Gate lists (high, low); reorder the basis to (low, high).
				mat = swapQubitOrderInto(linalg.NewMatrix(4, 4), g.Mat)
				a = b
			}
			referenceApply2(m, mat, a)
		}
		m.gatesApplied++
	}
	return nil
}

// referenceMul is the reference chain's matrix product: the state's
// backend, or linalg's serial product for a nil Config.Backend.
func referenceMul(m *MPS) func(a, b *linalg.Matrix) *linalg.Matrix {
	if be := m.cfg.Backend; be != nil {
		return be.MatMul
	}
	return linalg.MatMulSerial
}

// referenceApply1 contracts a single-qubit gate with the site tensor
// (Fig. 1a); the centre is untouched.
func referenceApply1(m *MPS, g *linalg.Matrix, q int) {
	site := m.Sites[q] // (l, 2, r)
	gt := tensorFromData(g.Data, 2, 2)
	// out[l, r, s_out] = Σ_s site[l, s, r] · g[s_out, s]
	out := ContractWith(site, gt, []int{1}, []int{1}, referenceMul(m))
	m.Sites[q] = out.Transpose(0, 2, 1)
}

// referenceApply2 applies a two-qubit gate on sites (q, q+1) with the
// matrix in (low, high) basis order (Fig. 1b): move the centre to q, merge
// the two sites, contract with the gate, SVD, truncate against the budget,
// and split back, leaving the centre at q+1.
func referenceApply2(m *MPS, g *linalg.Matrix, q int) {
	referenceMoveCenterTo(m, q)
	mul := referenceMul(m)
	a, b := m.Sites[q], m.Sites[q+1]                               // (l,2,k) and (k,2,r)
	merged := ContractWith(a, b, []int{2}, []int{0}, mul)          // (l, s_q, s_q1, r)
	gt := tensorFromData(g.Data, 2, 2, 2, 2)                       // (o_q, o_q1, i_q, i_q1)
	out := ContractWith(merged, gt, []int{1, 2}, []int{2, 3}, mul) // (l, r, o_q, o_q1)
	theta := out.Transpose(0, 2, 3, 1)                             // (l, o_q, o_q1, r)

	l, r := theta.Shape[0], theta.Shape[3]
	res := linalg.SVD(theta.Matricize(0, 1)) // (l·2, 2·r)
	keep, discarded := m.truncationCut(res.S)
	tr, _ := res.Truncate(keep)
	m.TruncationError += discarded

	// Left site ← U (left-canonical); right site ← diag(S)·V† (the centre).
	m.Sites[q] = tensorFromData(tr.U.Data, l, 2, keep)
	sv := tr.V.ConjTranspose() // (keep, 2·r)
	for i := 0; i < keep; i++ {
		f := complex(tr.S[i], 0)
		row := sv.Row(i)
		for j := range row {
			row[j] *= f
		}
	}
	m.Sites[q+1] = tensorFromData(sv.Data, keep, 2, r)
	m.center = q + 1
}

// referenceMoveCenterTo shifts the orthogonality centre to site q with QR
// (moving right) and LQ (moving left), building fresh tensors per step.
func referenceMoveCenterTo(m *MPS, q int) {
	mul := referenceMul(m)
	for m.center < q {
		i := m.center
		qt, rt := QRDecompose(m.Sites[i], []int{0, 1})
		m.Sites[i] = qt // (l,2,k) left-canonical
		// Absorb R into the next site: next'[k,2,r'] = Σ R[k,j]·next[j,2,r'].
		m.Sites[i+1] = ContractWith(rt, m.Sites[i+1], []int{1}, []int{0}, mul)
		m.center++
	}
	for m.center > q {
		i := m.center
		lt, qt := LQDecompose(m.Sites[i], []int{0})
		m.Sites[i] = qt // (k,2,r) right-canonical
		m.Sites[i-1] = ContractWith(m.Sites[i-1], lt, []int{2}, []int{0}, mul)
		m.center--
	}
}
