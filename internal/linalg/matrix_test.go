package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape %d×%d len=%d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("entry %d not zero: %v", i, v)
		}
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong data length")
		}
	}()
	FromSlice(2, 2, make([]complex128, 3))
}

func TestAtSetRoundTrip(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 3+4i)
	if got := m.At(1, 2); got != 3+4i {
		t.Fatalf("At(1,2) = %v, want 3+4i", got)
	}
	if got := m.Data[1*3+2]; got != 3+4i {
		t.Fatalf("row-major storage mismatch: %v", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range access")
		}
	}()
	_ = m.At(2, 0)
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(4)[%d][%d] = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestConjTranspose(t *testing.T) {
	m := FromSlice(2, 3, []complex128{1 + 1i, 2, 3 - 2i, 4, 5i, 6})
	ct := m.ConjTranspose()
	if ct.Rows != 3 || ct.Cols != 2 {
		t.Fatalf("shape %d×%d", ct.Rows, ct.Cols)
	}
	if ct.At(0, 0) != 1-1i || ct.At(2, 0) != 3+2i || ct.At(1, 1) != -5i {
		t.Fatalf("wrong conjugate transpose: %v", ct)
	}
	// (m†)† == m
	if !ct.ConjTranspose().EqualApprox(m, 0) {
		t.Fatal("double adjoint does not round-trip")
	}
}

func TestTransposeVsConjTranspose(t *testing.T) {
	m := FromSlice(2, 2, []complex128{1 + 1i, 2i, 3, 4})
	tr := m.Transpose()
	if tr.At(0, 0) != 1+1i || tr.At(1, 0) != 2i {
		t.Fatalf("plain transpose should not conjugate: %v", tr)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromSlice(1, 2, []complex128{1, 2})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromSlice(2, 2, []complex128{1, 2, 3, 4})
	b := FromSlice(2, 2, []complex128{4, 3, 2, 1})
	sum := a.Add(b)
	for _, v := range sum.Data {
		if v != 5 {
			t.Fatalf("Add wrong: %v", sum.Data)
		}
	}
	diff := sum.Sub(b)
	if !diff.EqualApprox(a, 0) {
		t.Fatalf("Sub wrong: %v", diff.Data)
	}
	sc := a.Clone().Scale(2i)
	if sc.At(1, 1) != 8i {
		t.Fatalf("Scale wrong: %v", sc.Data)
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(2, 2).Add(NewMatrix(2, 3))
}

func TestFrobeniusNorm(t *testing.T) {
	m := FromSlice(1, 2, []complex128{3, 4i})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("‖·‖F = %v, want 5", got)
	}
}

func TestMaxAbs(t *testing.T) {
	m := FromSlice(1, 3, []complex128{1, -3i, 2 + 2i})
	if got := m.MaxAbs(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("MaxAbs = %v, want 3", got)
	}
	if got := NewMatrix(0, 0).MaxAbs(); got != 0 {
		t.Fatalf("empty MaxAbs = %v", got)
	}
}

func TestIsHermitian(t *testing.T) {
	h := FromSlice(2, 2, []complex128{2, 1 + 1i, 1 - 1i, 3})
	if !h.IsHermitian(1e-12) {
		t.Fatal("expected Hermitian")
	}
	nh := FromSlice(2, 2, []complex128{2, 1 + 1i, 1 + 1i, 3})
	if nh.IsHermitian(1e-12) {
		t.Fatal("expected non-Hermitian")
	}
	if NewMatrix(2, 3).IsHermitian(1) {
		t.Fatal("non-square can't be Hermitian")
	}
}

func TestRandomUnitaryIsUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 8} {
		u := RandomUnitary(rng, n)
		if !u.IsUnitary(1e-10) {
			t.Fatalf("RandomUnitary(%d) not unitary", n)
		}
	}
}

func TestIsUnitaryRejectsNonUnitary(t *testing.T) {
	m := Identity(3)
	m.Set(0, 0, 2)
	if m.IsUnitary(1e-10) {
		t.Fatal("scaled identity should not be unitary")
	}
}

// Property: conjugate transpose is an involution and preserves the norm.
func TestPropertyAdjointInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := Random(rng, 1+rng.Intn(6), 1+rng.Intn(6))
		ct := m.ConjTranspose()
		return ct.ConjTranspose().EqualApprox(m, 0) &&
			math.Abs(ct.FrobeniusNorm()-m.FrobeniusNorm()) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: ‖A+B‖F ≤ ‖A‖F + ‖B‖F (triangle inequality).
func TestPropertyTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(5), 1+rng.Intn(5)
		a, b := Random(rng, r, c), Random(rng, r, c)
		return a.Add(b).FrobeniusNorm() <= a.FrobeniusNorm()+b.FrobeniusNorm()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := Identity(2)
	if s := small.String(); len(s) == 0 {
		t.Fatal("empty String for small matrix")
	}
	big := NewMatrix(20, 20)
	if s := big.String(); len(s) == 0 || len(s) > 100 {
		t.Fatalf("summary String unexpected: %q", s)
	}
}

func BenchmarkConjTranspose128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := Random(rng, 128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.ConjTranspose()
	}
}

var _ = cmplx.Abs // keep import when benchmarks are filtered out
