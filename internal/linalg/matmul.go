package linalg

import (
	"fmt"
	"runtime"
	"sync"
)

// matmulParallelThreshold is the flop count (2·m·n·k) above which MatMul
// spreads row blocks across goroutines. Below it the serial kernel is faster
// because goroutine scheduling dominates.
const matmulParallelThreshold = 1 << 20

// MatMul returns a·b using a cache-friendly ikj kernel, parallelising over
// row blocks for large products. Panics if the inner dimensions disagree.
//
// This is the convenience entry point used across the repository; code that
// needs explicit control over serial vs parallel execution (the backend
// crossover experiments) calls MatMulSerial and MatMulParallel directly.
func MatMul(a, b *Matrix) *Matrix {
	if 2*a.Rows*a.Cols*b.Cols >= matmulParallelThreshold {
		return MatMulParallel(a, b, runtime.GOMAXPROCS(0))
	}
	return MatMulSerial(a, b)
}

// MatMulSerial returns a·b computed on the calling goroutine only.
func MatMulSerial(a, b *Matrix) *Matrix {
	checkMulShapes(a, b)
	c := NewMatrix(a.Rows, b.Cols)
	mulRows(a, b, c, 0, a.Rows)
	return c
}

// MatMulParallel returns a·b with row blocks distributed over up to workers
// goroutines. workers < 1 is treated as 1.
func MatMulParallel(a, b *Matrix, workers int) *Matrix {
	checkMulShapes(a, b)
	c := NewMatrix(a.Rows, b.Cols)
	mulRowsParallel(a, b, c, workers)
	return c
}

// mulRowsParallel fills c = a·b, splitting row blocks over up to workers
// goroutines; each row is produced whole by the serial kernel, so the result
// is bit-for-bit independent of the worker count. The single scheduling body
// behind MatMulParallel and the workspace kernels.
func mulRowsParallel(a, b, c *Matrix, workers int) {
	if workers < 1 {
		workers = 1
	}
	if workers > a.Rows {
		workers = a.Rows
	}
	if workers <= 1 {
		mulRows(a, b, c, 0, a.Rows)
		return
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mulRows(a, b, c, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// tileBytes is the footprint budget of the operand panel a blocked kernel
// keeps hot: once the streamed operand (b for the row kernel, the dst slab
// for the adjoint kernel) exceeds it, the contraction is tiled so each panel
// stays cache-resident across the rows that reuse it. ~128 KiB targets half
// of a typical per-core L2 so the stationary operand and the streamed rows
// coexist.
const tileBytes = 1 << 17

// mulRows computes rows [lo, hi) of c = a·b with an ikj loop order so the
// innermost loop streams contiguously through b and c. When b exceeds the
// tile budget and more than one output row amortises a pass, the contraction
// index is blocked so each panel of b stays cache-resident across the whole
// row range (see mulRowsTiled — the accumulation order per entry is
// unchanged, so the tiled path is bit-identical).
func mulRows(a, b, c *Matrix, lo, hi int) {
	n := b.Cols
	k := a.Cols
	if hi-lo > 1 && 16*k*n > tileBytes {
		mulRowsTiled(a, b, c, lo, hi)
		return
	}
	mulRowsBlock(a, b, c, lo, hi, 0, k)
}

// mulRowsTiled is the cache-blocked row kernel: the contraction index is cut
// into panels of pt rows of b (sized to the tile budget), and each panel is
// applied to every output row before the next panel streams in. For a fixed
// output entry the contraction still accumulates in ascending index order —
// panels ascend and the index ascends within each panel — so the result is
// bit-for-bit identical to the untiled kernel.
func mulRowsTiled(a, b, c *Matrix, lo, hi int) {
	n := b.Cols
	k := a.Cols
	pt := tileBytes / (16 * n)
	if pt < 16 {
		pt = 16
	}
	for p0 := 0; p0 < k; p0 += pt {
		p1 := p0 + pt
		if p1 > k {
			p1 = k
		}
		mulRowsBlock(a, b, c, lo, hi, p0, p1)
	}
}

// mulRowsBlock accumulates the contraction slice [pLo, pHi) of c = a·b into
// rows [lo, hi) of c, one axpy per nonzero a entry.
func mulRowsBlock(a, b, c *Matrix, lo, hi, pLo, pHi int) {
	n := b.Cols
	k := a.Cols
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		for p := pLo; p < pHi; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			axpy(crow, b.Data[p*n:(p+1)*n], av)
		}
	}
}

func checkMulShapes(a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: MatMul inner dimension mismatch %d×%d · %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Reuse reshapes m to rows×cols with a zeroed payload, reallocating the
// backing slice only when its capacity is insufficient. It is the grow-only
// primitive behind the in-place kernels: a workspace matrix passed through
// Reuse repeatedly settles at the largest size seen and then stops
// allocating. Returns m.
func (m *Matrix) Reuse(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid matrix shape %d×%d", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]complex128, n)
	} else {
		m.Data = m.Data[:n]
		for i := range m.Data {
			m.Data[i] = 0
		}
	}
	m.Rows, m.Cols = rows, cols
	return m
}

// MatMulInto computes dst = a·b on the calling goroutine, reusing dst's
// backing storage via Reuse. dst must not alias a or b. Returns dst.
//
// The accumulation order is identical to MatMulSerial, so results are
// bit-for-bit equal to the allocating path.
func MatMulInto(dst, a, b *Matrix) *Matrix {
	checkMulShapes(a, b)
	dst.Reuse(a.Rows, b.Cols)
	mulRows(a, b, dst, 0, a.Rows)
	return dst
}

// MatMulIntoParallel is MatMulInto with row blocks distributed over up to
// workers goroutines. Each output row is produced whole by one goroutine
// running the serial kernel, so results are bit-for-bit identical to
// MatMulInto for any worker count. Small products fall back to the serial
// kernel to avoid scheduling overhead.
func MatMulIntoParallel(dst, a, b *Matrix, workers int) *Matrix {
	return mulIntoWorkers(dst, a, b, workers)
}

// MatMulAdjAInto computes dst = aᴴ·b without materialising the adjoint,
// reusing dst's backing storage. a is (k×m), b is (k×n), dst becomes (m×n).
// dst must not alias a or b. Returns dst.
//
// The kernel walks a and b row by row and accumulates rank-1 updates into
// dst, so for every dst entry the sum over the contraction index runs in
// ascending order — bit-for-bit equal to MatMulSerial(a.ConjTranspose(), b).
// When dst outgrows the tile budget, its rows are blocked so each slab stays
// cache-resident across the full contraction sweep (the per-entry
// accumulation order is unchanged, so the tiled path is bit-identical).
func MatMulAdjAInto(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("linalg: MatMulAdjA contraction mismatch %d×%d ᴴ· %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	m, n := a.Cols, b.Cols
	dst.Reuse(m, n)
	if a.Rows > 1 && 16*m*n > tileBytes {
		it := tileBytes / (16 * n)
		if it < 16 {
			it = 16
		}
		for i0 := 0; i0 < m; i0 += it {
			i1 := i0 + it
			if i1 > m {
				i1 = m
			}
			adjARowsBlock(dst, a, b, i0, i1)
		}
		return dst
	}
	adjARowsBlock(dst, a, b, 0, m)
	return dst
}

// adjARowsBlock accumulates rows [iLo, iHi) of dst = aᴴ·b over the full
// contraction range.
func adjARowsBlock(dst, a, b *Matrix, iLo, iHi int) {
	m, n := a.Cols, b.Cols
	for p := 0; p < a.Rows; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i := iLo; i < iHi; i++ {
			av := arow[i]
			cv := complex(real(av), -imag(av))
			if cv == 0 {
				continue
			}
			axpy(dst.Data[i*n:(i+1)*n], brow, cv)
		}
	}
}
