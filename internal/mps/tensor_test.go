package mps

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

func randomTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := NewTensor(shape...)
	for i := range t.Data {
		t.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return t
}

func TestNewAndSize(t *testing.T) {
	tt := NewTensor(2, 3, 4)
	if tt.Rank() != 3 || tt.Size() != 24 || tt.Bytes() != 24*16 {
		t.Fatalf("rank=%d size=%d bytes=%d", tt.Rank(), tt.Size(), tt.Bytes())
	}
}

// TestScalar: a tensor with no bonds is a scalar holding one entry — the
// shape a full contraction returns.
func TestScalar(t *testing.T) {
	s := NewTensor()
	if s.Rank() != 0 || s.Size() != 1 || len(s.Data) != 1 {
		t.Fatalf("rank-0 tensor wrong: %v", s)
	}
	w := tensorFromData([]complex128{2 + 3i})
	if w.Rank() != 0 || w.Size() != 1 || w.Data[0] != 2+3i {
		t.Fatalf("rank-0 wrap wrong: %v", w)
	}
}

func TestAtSetRowMajorOrder(t *testing.T) {
	tt := NewTensor(2, 3)
	tt.Set(7i, 1, 2)
	if tt.Data[1*3+2] != 7i {
		t.Fatal("last axis should vary fastest (row-major)")
	}
	if tt.At(1, 2) != 7i {
		t.Fatal("At/Set round-trip failed")
	}
}

func TestAtBoundsPanics(t *testing.T) {
	tt := NewTensor(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = tt.At(0, 2)
}

func TestAtRankMismatchPanics(t *testing.T) {
	tt := NewTensor(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = tt.At(0)
}

// TestReshapeSharesStorage: the paper's equation (7) reshape is a row-major
// reinterpretation of the same storage; the reference chain performs it by
// wrapping a buffer with tensorFromData under the new shape, which must
// alias, not copy.
func TestReshapeSharesStorage(t *testing.T) {
	tt := NewTensor(2, 6)
	r := tensorFromData(tt.Data, 3, 4)
	r.Set(5, 2, 3)
	if tt.Data[11] != 5 || tt.At(1, 5) != 5 {
		t.Fatal("reshape should alias storage")
	}
}

func TestReshapeVolumeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tensorFromData(NewTensor(2, 3).Data, 4, 2)
}

func TestTransposeKnown(t *testing.T) {
	tt := NewTensor(2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			tt.Set(complex(float64(10*i+j), 0), i, j)
		}
	}
	tr := tt.Transpose(1, 0)
	if tr.Shape[0] != 3 || tr.Shape[1] != 2 {
		t.Fatalf("transposed shape %v", tr.Shape)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if tr.At(j, i) != tt.At(i, j) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeRank3(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tt := randomTensor(rng, 2, 3, 4)
	tr := tt.Transpose(2, 0, 1)
	if tr.Shape[0] != 4 || tr.Shape[1] != 2 || tr.Shape[2] != 3 {
		t.Fatalf("shape %v", tr.Shape)
	}
	for a := 0; a < 2; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 4; c++ {
				if tr.At(c, a, b) != tt.At(a, b, c) {
					t.Fatalf("entry mismatch at (%d,%d,%d)", a, b, c)
				}
			}
		}
	}
}

func TestTransposeInvalidPermPanics(t *testing.T) {
	tt := NewTensor(2, 2)
	for _, perm := range [][]int{{0}, {0, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for perm %v", perm)
				}
			}()
			tt.Transpose(perm...)
		}()
	}
}

// Property: applying a permutation and then its inverse round-trips.
func TestPropertyTransposeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rank := 1 + rng.Intn(4)
		shape := make([]int, rank)
		for i := range shape {
			shape[i] = 1 + rng.Intn(4)
		}
		tt := randomTensor(rng, shape...)
		perm := rng.Perm(rank)
		inv := make([]int, rank)
		for i, p := range perm {
			inv[p] = i
		}
		return tt.Transpose(perm...).Transpose(inv...).EqualApprox(tt, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConj(t *testing.T) {
	tt := tensorFromData([]complex128{1 + 2i, -3i}, 2)
	c := tt.Conj()
	if c.Data[0] != 1-2i || c.Data[1] != 3i {
		t.Fatalf("Conj wrong: %v", c.Data)
	}
}

func TestNorm(t *testing.T) {
	tt := tensorFromData([]complex128{3, 4i}, 2)
	if math.Abs(tt.Norm()-5) > 1e-12 {
		t.Fatalf("Norm = %v", tt.Norm())
	}
}

func TestMatricizeOrderedFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tt := randomTensor(rng, 2, 3, 4)
	m := tt.Matricize(0, 1) // rows over axes 0,1, cols over axis 2
	if m.Rows != 6 || m.Cols != 4 {
		t.Fatalf("matricized shape %d×%d", m.Rows, m.Cols)
	}
	// Entry check: t[i][j][k] == m[i*3+j][k].
	if m.At(1*3+2, 3) != tt.At(1, 2, 3) {
		t.Fatal("ordered matricize entry mismatch")
	}
}

func TestMatricizePermuted(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tt := randomTensor(rng, 2, 3, 4)
	m := tt.Matricize(2) // rows over axis 2, cols over axes 0,1
	if m.Rows != 4 || m.Cols != 6 {
		t.Fatalf("matricized shape %d×%d", m.Rows, m.Cols)
	}
	if m.At(3, 1*3+2) != tt.At(1, 2, 3) {
		t.Fatal("permuted matricize entry mismatch")
	}
}

func TestMatricizeDuplicateAxisPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTensor(2, 2).Matricize(0, 0)
}

// TestFromMatrixRoundTrip: a row-major matrix wrapped as a rank-2 tensor (as
// the reference chain does with gate matrices) keeps its layout and storage.
func TestFromMatrixRoundTrip(t *testing.T) {
	m := linalg.FromSlice(2, 2, []complex128{1, 2, 3, 4})
	tt := tensorFromData(m.Data, m.Rows, m.Cols)
	if tt.At(1, 0) != 3 || tt.At(0, 1) != 2 {
		t.Fatal("matrix-to-tensor layout mismatch")
	}
	tt.Set(9, 1, 1)
	if m.At(1, 1) != 9 {
		t.Fatal("matrix-to-tensor wrap should alias storage")
	}
}
