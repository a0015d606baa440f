package linalg

import (
	"math/rand"
	"testing"
)

// refMul is the untiled ikj kernel (exactly mulRowsBlock over the full
// contraction range): the reference the cache-tiled paths must match
// bit-for-bit.
func refMul(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	n, k := b.Cols, a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// refAdjMul is the untiled rank-1 adjoint kernel: dst = aᴴ·b with the
// contraction index ascending per entry.
func refAdjMul(a, b *Matrix) *Matrix {
	m, n := a.Cols, b.Cols
	c := NewMatrix(m, n)
	for p := 0; p < a.Rows; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			cv := complex(real(av), -imag(av))
			if cv == 0 {
				continue
			}
			crow := c.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				crow[j] += cv * bv
			}
		}
	}
	return c
}

func bitEqual(t *testing.T, label string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %d×%d vs %d×%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: entry %d: %v vs %v (must be bit-identical)", label, i, got.Data[i], want.Data[i])
		}
	}
}

// TestTiledMatMulBitIdentical drives both dense kernels across the tile
// threshold (16·k·n > tileBytes for the row kernel, 16·m·n for the adjoint
// kernel) and demands bit-identity with the untiled reference: tiling is a
// loop-order transformation only, never a numerical one.
func TestTiledMatMulBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shapes := [][3]int{
		{2, 600, 32},   // crosses the row-kernel threshold with a tall contraction
		{40, 1100, 24}, // several panels
		{3, 16, 8},     // far below the threshold: untiled fast path
		{1, 5000, 64},  // single row: tiling disabled by design
		{64, 64, 64},
	}
	for _, sz := range shapes {
		m, k, n := sz[0], sz[1], sz[2]
		a, b := Random(rng, m, k), Random(rng, k, n)
		var dst Matrix
		bitEqual(t, "MatMulInto", MatMulInto(&dst, a, b), refMul(a, b))

		at := Random(rng, k, m) // contraction dim k rows, output m×n
		var adj Matrix
		bitEqual(t, "MatMulAdjAInto", MatMulAdjAInto(&adj, at, b), refAdjMul(at, b))
	}
}
