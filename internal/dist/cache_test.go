package dist

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mps"
	"repro/internal/statecache"
)

func cachedTestKernel(features int) *kernel.Quantum {
	q := testKernel(features)
	q.Cache = statecache.New(128 << 20)
	return q
}

// TestCachedStrategiesAgree: with a shared state cache both strategies still
// agree with the uncached serial path to 1e-12 (the acceptance tolerance;
// the states and contraction are in fact identical).
func TestCachedStrategiesAgree(t *testing.T) {
	X := testData(t, 11, 6)
	ref, err := testKernel(6).Gram(X)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{RoundRobin, NoMessaging} {
		res, err := ComputeGram(cachedTestKernel(6), X, Options{Procs: 3, Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		for i := range ref {
			for j := range ref[i] {
				if math.Abs(ref[i][j]-res.Gram[i][j]) > 1e-12 {
					t.Fatalf("%v: entry (%d,%d) cached %v vs uncached %v", strat, i, j, res.Gram[i][j], ref[i][j])
				}
			}
		}
	}
}

// TestNoMessagingCacheCollapsesRedundancy: the in-flight deduplication turns
// the strategy's redundant simulations into exactly n cluster-wide — the
// rest arrive as cache hits.
func TestNoMessagingCacheCollapsesRedundancy(t *testing.T) {
	n := 12
	X := testData(t, n, 6)
	q := cachedTestKernel(6)
	res, err := ComputeGram(q, X, Options{Procs: 4, Strategy: NoMessaging})
	if err != nil {
		t.Fatal(err)
	}
	if sims := res.TotalStatesSimulated(); sims != n {
		t.Fatalf("cached no-messaging simulated %d states, want exactly %d", sims, n)
	}
	if hits := res.TotalCacheHits(); hits == 0 {
		t.Fatal("cached no-messaging recorded no hits despite overlapping shards")
	}
}

// TestResultStatesRetained: ComputeGram hands back the simulated training
// states under both strategies, indexed like the input rows.
func TestResultStatesRetained(t *testing.T) {
	X := testData(t, 9, 6)
	q := testKernel(6)
	for _, strat := range []Strategy{RoundRobin, NoMessaging} {
		res, err := ComputeGram(q, X, Options{Procs: 3, Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(res.States) != len(X) {
			t.Fatalf("%v: %d retained states for %d rows", strat, len(res.States), len(X))
		}
		for i, st := range res.States {
			if st == nil {
				t.Fatalf("%v: retained state %d is nil", strat, i)
			}
		}
		// The retained handles reproduce the Gram diagonal and a spot-check
		// row exactly.
		for i := range X {
			if v := mps.Overlap(res.States[i], res.States[i]); math.Abs(v-res.Gram[i][i]) > 1e-12 {
				t.Fatalf("%v: retained state %d self-overlap %v vs gram %v", strat, i, v, res.Gram[i][i])
			}
			if v := mps.Overlap(res.States[0], res.States[i]); math.Abs(v-res.Gram[0][i]) > 1e-12 {
				t.Fatalf("%v: retained states (0,%d) overlap %v vs gram %v", strat, i, v, res.Gram[0][i])
			}
		}
	}
}

// TestCachedRaceStress runs both strategies concurrently against one shared
// cache — the -race check for the cache-threaded simulation paths.
func TestCachedRaceStress(t *testing.T) {
	X := testData(t, 8, 5)
	q := cachedTestKernel(5)
	done := make(chan error, 2)
	go func() {
		_, err := ComputeGram(q, X, Options{Procs: 3, Strategy: RoundRobin})
		done <- err
	}()
	go func() {
		_, err := ComputeGram(q, X, Options{Procs: 2, Strategy: NoMessaging})
		done <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
