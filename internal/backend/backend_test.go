package backend

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/linalg"
)

func backends() []Backend {
	return []Backend{
		NewSerial(),
		NewParallelWithOverhead(4, 0), // overhead disabled for correctness tests
	}
}

func TestBackendsAgreeOnMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := linalg.Random(rng, 17, 9)
	b := linalg.Random(rng, 9, 23)
	want := linalg.MatMulSerial(a, b)
	for _, bk := range backends() {
		got := bk.MatMul(a, b)
		if !got.EqualApprox(want, 1e-10) {
			t.Errorf("%s MatMul disagrees", bk.Name())
		}
	}
}

// truncSVDsAgree decomposes m on every backend through SVDTruncLazy with the
// full-rank Factors and requires the spectrum and both factors to be
// bit-identical to the serial backend's: the Table I claim that the backends
// run the same algorithm and differ only in wall-clock.
func truncSVDsAgree(t *testing.T, m *linalg.Matrix) {
	t.Helper()
	var want linalg.SVDResult
	for i, bk := range backends() {
		var ws linalg.Workspace
		ts := bk.SVDTruncLazy(&ws, m)
		u, v := ts.Factors(len(ts.S))
		got := linalg.SVDResult{U: u, S: ts.S, V: v}
		if d := got.Reconstruct().Sub(m).FrobeniusNorm(); d > 1e-9*(1+m.FrobeniusNorm()) {
			t.Errorf("%s SVDTruncLazy reconstruction error %.3g", bk.Name(), d)
		}
		if i == 0 {
			want = linalg.SVDResult{U: u.Clone(), S: append([]float64(nil), ts.S...), V: v.Clone()}
			continue
		}
		for k := range want.S {
			if got.S[k] != want.S[k] {
				t.Fatalf("%s: S[%d] = %v, serial %v", bk.Name(), k, got.S[k], want.S[k])
			}
		}
		for k := range want.U.Data {
			if got.U.Data[k] != want.U.Data[k] {
				t.Fatalf("%s: U entry %d differs from serial", bk.Name(), k)
			}
		}
		for k := range want.V.Data {
			if got.V.Data[k] != want.V.Data[k] {
				t.Fatalf("%s: V entry %d differs from serial", bk.Name(), k)
			}
		}
	}
}

// TestBackendsAgreeOnSVD: a near-square block takes the direct Gram stage,
// and at 96×96 its Gram formation and A·V product cross the parallel
// threshold, so the parallel backend's fanned-out kernels really run.
func TestBackendsAgreeOnSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	truncSVDsAgree(t, linalg.Random(rng, 12, 8))
	truncSVDsAgree(t, linalg.Random(rng, 96, 96))
}

// TestBackendsAgreeOnQR: a block with aspect ≥ 2 is QR-preconditioned
// inside SVDTruncLazy; at 256×64 every Householder reflector's column update
// crosses the parallel threshold.
func TestBackendsAgreeOnQR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	truncSVDsAgree(t, linalg.Random(rng, 10, 4))
	truncSVDsAgree(t, linalg.Random(rng, 256, 64))
}

func TestStatsCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := linalg.Random(rng, 4, 4)
	for _, bk := range backends() {
		var dst linalg.Matrix
		var ws linalg.Workspace
		bk.MatMul(a, a)
		bk.MatMulInto(&dst, a, a)
		bk.SVDTruncLazy(&ws, a)
		snap := bk.Stats().Snapshot()
		if snap.MatMulOps != 2 || snap.SVDOps != 1 || snap.QROps != 0 {
			t.Fatalf("%s counts wrong: %+v", bk.Name(), snap)
		}
		if snap.TotalTime() <= 0 {
			t.Fatalf("%s: expected nonzero accumulated time", bk.Name())
		}
		bk.Stats().Reset()
		snap = bk.Stats().Snapshot()
		if snap.MatMulOps != 0 || snap.SVDOps != 0 || snap.TotalTime() != 0 {
			t.Fatalf("%s: Reset did not clear: %+v", bk.Name(), snap)
		}
	}
}

func TestParallelDefaults(t *testing.T) {
	p := NewParallel(0)
	if p.Workers() < 1 {
		t.Fatal("workers must default to ≥1")
	}
	if p.Overhead() != DefaultDispatchOverhead {
		t.Fatalf("overhead %v", p.Overhead())
	}
	n := NewParallelWithOverhead(2, -time.Second)
	if n.Overhead() != 0 {
		t.Fatal("negative overhead must clamp to 0")
	}
}

func TestDispatchOverheadIsPaid(t *testing.T) {
	// With a large synthetic overhead, even a tiny op must take at least that
	// long — the mechanism behind the CPU-favoured regime at small χ.
	p := NewParallelWithOverhead(2, 2*time.Millisecond)
	a := linalg.Identity(2)
	t0 := time.Now()
	p.MatMul(a, a)
	if el := time.Since(t0); el < 2*time.Millisecond {
		t.Fatalf("dispatch overhead not applied: %v", el)
	}
}

func TestNames(t *testing.T) {
	if NewSerial().Name() != "serial" || NewParallel(1).Name() != "parallel" {
		t.Fatal("backend names changed — experiment output depends on them")
	}
}
