package dist

import (
	"fmt"
	"math"
	"sync"
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

// TestComputeCrossStates: inference from retained handles simulates only the
// test rows at every process count and communicates nothing. An empty test
// set yields an empty kernel. (Agreement with the serial kernel is
// TestComputeCrossAgreesWithSerial.)
func TestComputeCrossStates(t *testing.T) {
	train := testData(t, 8, 6)
	test := testData(t, 13, 6)[8:]
	q := testKernel(6)

	gramRes, err := ComputeGram(q, train, Options{Procs: 3, Strategy: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 6} {
		res, err := ComputeCrossStates(q, test, gramRes.States, Options{Procs: k})
		if err != nil {
			t.Fatalf("procs=%d: %v", k, err)
		}
		if sims := res.TotalStatesSimulated(); sims != len(test) {
			t.Fatalf("procs=%d: simulated %d states, want %d", k, sims, len(test))
		}
		if res.TotalBytes() != 0 || res.TotalMessages() != 0 {
			t.Fatalf("procs=%d: communicated %d bytes, %d messages", k, res.TotalBytes(), res.TotalMessages())
		}
	}

	empty, err := ComputeCrossStates(q, nil, gramRes.States, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Gram) != 0 {
		t.Fatalf("empty test set produced %d rows", len(empty.Gram))
	}
}

// TestComputeCrossStatesRejectsNil: a nil training handle, a nil kernel and
// a negative process count are errors.
func TestComputeCrossStatesRejectsNil(t *testing.T) {
	test := testData(t, 2, 6)
	q := testKernel(6)
	if _, err := ComputeCrossStates(q, test, make([]*mps.MPS, 3), Options{Procs: 2}); err == nil {
		t.Fatal("nil training state accepted")
	}
	gramRes, err := ComputeGram(q, test, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComputeCrossStates(nil, test, gramRes.States, Options{Procs: 2}); err == nil {
		t.Fatal("nil kernel must error")
	}
	if _, err := ComputeCrossStates(q, test, gramRes.States, Options{Procs: -1}); err == nil {
		t.Fatal("negative procs must error")
	}
}

// TestComputeCrossStatesRejectsWidthMismatch: handles from a different-width
// ansatz, and a test row of the wrong width, must surface as errors, never
// a panic in the overlap zipper.
func TestComputeCrossStatesRejectsWidthMismatch(t *testing.T) {
	train := testData(t, 4, 6)
	q := testKernel(6)
	gramRes, err := ComputeGram(q, train, Options{Procs: 2, Strategy: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	narrow := testKernel(5)
	if _, err := ComputeCrossStates(narrow, testData(t, 2, 5), gramRes.States, Options{Procs: 2}); err == nil {
		t.Fatal("6-qubit training states accepted by a 5-qubit ansatz")
	}
	bad := testData(t, 6, 6)
	bad[3] = []float64{0.5} // wrong dimension for a 6-qubit ansatz
	if _, err := ComputeCrossStates(q, bad, gramRes.States, Options{Procs: 3}); err == nil {
		t.Fatal("malformed test row must error")
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

// TestConcurrentCrossStatesShareIdleWorkspaces: two inference calls running
// at once draw their per-worker workspaces from the same process-wide idle
// sets, and each still returns the kernel a lone call returns, ==. Run
// under -race, this checks that no workspace is handed to two calls.
func TestConcurrentCrossStatesShareIdleWorkspaces(t *testing.T) {
	train := testData(t, 8, 6)
	tests := [][][]float64{testData(t, 14, 6)[8:], testData(t, 20, 6)[14:]}
	q := testKernel(6)
	gramRes, err := ComputeGram(q, train, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][][]float64, len(tests))
	for i, test := range tests {
		res, err := ComputeCrossStates(q, test, gramRes.States, Options{Procs: 2})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Gram
	}
	for round := 0; round < 4; round++ {
		got := make([][][]float64, len(tests))
		errs := make([]error, len(tests))
		var wg sync.WaitGroup
		for i, test := range tests {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := ComputeCrossStates(q, test, gramRes.States, Options{Procs: 2})
				if err == nil {
					got[i] = res.Gram
				}
				errs[i] = err
			}()
		}
		wg.Wait()
		for i := range tests {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			checkIdentical(t, fmt.Sprintf("round %d call %d", round, i), want[i], got[i])
		}
	}
}
