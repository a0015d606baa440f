package kernel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mps"
	"repro/internal/statecache"
)

func cachedQuantum(m int) *Quantum {
	q := defaultQuantum(m)
	q.Cache = statecache.New(64 << 20)
	return q
}

// TestCachedGramMatchesUncached: the cached path must agree with the
// uncached one to 1e-12 on Gram and Cross — in fact the entries are computed
// from identical states by an identical contraction, so they match exactly.
func TestCachedGramMatchesUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	X := testData(rng, 10, 6)
	T := testData(rng, 5, 6)

	ref, err := defaultQuantum(6).Gram(X)
	if err != nil {
		t.Fatal(err)
	}
	q := cachedQuantum(6)
	got, err := q.Gram(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		for j := range ref[i] {
			if math.Abs(ref[i][j]-got[i][j]) > 1e-12 {
				t.Fatalf("gram (%d,%d): cached %v vs uncached %v", i, j, got[i][j], ref[i][j])
			}
		}
	}

	refC, err := defaultQuantum(6).Cross(T, X)
	if err != nil {
		t.Fatal(err)
	}
	gotC, err := q.Cross(T, X) // X states now come from the warm cache
	if err != nil {
		t.Fatal(err)
	}
	for i := range refC {
		for j := range refC[i] {
			if math.Abs(refC[i][j]-gotC[i][j]) > 1e-12 {
				t.Fatalf("cross (%d,%d): cached %v vs uncached %v", i, j, gotC[i][j], refC[i][j])
			}
		}
	}
	if s := q.Cache.Stats(); s.Hits < int64(len(X)) {
		t.Fatalf("cross after gram hit only %d times, want ≥ %d: %+v", s.Hits, len(X), s)
	}
}

// TestStateCachedHitMiss: the same row misses once then hits, and the hit
// returns the identical state handle.
func TestStateCachedHitMiss(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	q := cachedQuantum(5)
	x := testData(rng, 1, 5)[0]

	st1, hit, err := q.StateCachedSpan(x, nil, nil)
	if err != nil || hit {
		t.Fatalf("first request: hit=%v err=%v", hit, err)
	}
	st2, hit, err := q.StateCachedSpan(x, nil, nil)
	if err != nil || !hit {
		t.Fatalf("second request: hit=%v err=%v", hit, err)
	}
	if st1 != st2 {
		t.Fatal("cache hit returned a different state handle")
	}
}

// TestFingerprintInvalidation: mutating the ansatz or the simulator
// configuration changes the cache key, so stale states are never returned.
func TestFingerprintInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	q := cachedQuantum(5)
	x := testData(rng, 1, 5)[0]

	mutations := []func(){
		func() { q.Ansatz.Gamma = 0.9 },
		func() { q.Ansatz.Layers = 3 },
		func() { q.Ansatz.Distance = 2 },
		func() { q.Config.MaxBond = 4 },
		func() { q.Config.TruncationBudget = 1e-8 },
		func() { q.Config.Renormalize = true },
	}
	if _, hit, err := q.StateCachedSpan(x, nil, nil); err != nil || hit {
		t.Fatalf("initial request: hit=%v err=%v", hit, err)
	}
	for i, mutate := range mutations {
		mutate()
		if _, hit, err := q.StateCachedSpan(x, nil, nil); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		} else if hit {
			t.Fatalf("mutation %d: stale cache hit after context change", i)
		}
		// The same context must hit on repeat.
		if _, hit, err := q.StateCachedSpan(x, nil, nil); err != nil || !hit {
			t.Fatalf("mutation %d repeat: hit=%v err=%v", i, hit, err)
		}
	}
}

// TestConfigDefaultsShareFingerprint: the zero Config and its explicit
// defaults are the same simulation, so they share cache entries.
func TestConfigDefaultsShareFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	q := cachedQuantum(5)
	x := testData(rng, 1, 5)[0]
	if _, _, err := q.StateCachedSpan(x, nil, nil); err != nil {
		t.Fatal(err)
	}
	q.Config.TruncationBudget = 1e-16 // the documented default of the zero value
	if _, hit, err := q.StateCachedSpan(x, nil, nil); err != nil || !hit {
		t.Fatalf("explicit default budget missed the zero-config entry: hit=%v err=%v", hit, err)
	}
}

// TestStatesBoundedPoolCorrect: the bounded worker pool produces the same
// states regardless of worker count, including workers ≫ rows and the
// serial path.
func TestStatesBoundedPoolCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	X := testData(rng, 9, 5)
	ref := defaultQuantum(5)
	want, err := ref.States(X)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 64} {
		q := defaultQuantum(5)
		q.Workers = workers
		got, err := q.States(X)
		if err != nil {
			t.Fatal(err)
		}
		ws := mps.NewWorkspace()
		for i := range want {
			if v := ws.Overlap(want[i], got[i]); math.Abs(v-1) > 1e-9 {
				t.Fatalf("workers=%d: state %d overlap %v with reference", workers, i, v)
			}
		}
	}
}

// TestGramCrossWorkerCounts: the row-band scheduler fills identical matrices
// at every worker count (including the workers>bands clamp).
func TestGramCrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	q := defaultQuantum(5)
	states, err := q.States(testData(rng, 11, 5))
	if err != nil {
		t.Fatal(err)
	}
	test := states[:4]
	ref := GramFromStates(states, 1)
	refC := CrossFromStates(test, states, 1)
	for _, workers := range []int{2, 3, 8, 100} {
		g := GramFromStates(states, workers)
		c := CrossFromStates(test, states, workers)
		for i := range ref {
			for j := range ref[i] {
				if g[i][j] != ref[i][j] {
					t.Fatalf("workers=%d: gram (%d,%d) %v vs %v", workers, i, j, g[i][j], ref[i][j])
				}
			}
		}
		for i := range refC {
			for j := range refC[i] {
				if c[i][j] != refC[i][j] {
					t.Fatalf("workers=%d: cross (%d,%d) %v vs %v", workers, i, j, c[i][j], refC[i][j])
				}
			}
		}
	}
}

// TestSimulatedStatesAreCompacted: states produced through the simulation
// pipeline (and thus eligible for cache residency / model retention) must
// carry no grow-only slack capacity — the engine's peak-bond buffers are
// trimmed before a state escapes, so the cache's MemoryBytes-based byte
// budget charges exactly the heap the state holds alive.
func TestSimulatedStatesAreCompacted(t *testing.T) {
	q := cachedQuantum(8)
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 8)
	for i := range x {
		x[i] = 0.2 + 1.6*rng.Float64()
	}
	st, err := q.State(x)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range st.Sites {
		if cap(s.Data) != len(s.Data) {
			t.Fatalf("cached state site %d retains slack capacity: cap %d, len %d", i, cap(s.Data), len(s.Data))
		}
	}
}
