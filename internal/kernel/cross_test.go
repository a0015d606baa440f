package kernel

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mps"
	"repro/internal/obs"
)

// checkSame fails unless got and want are the same matrix, entry for entry ==.
func checkSame(t *testing.T, name string, want, got [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d entries, want %d", name, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: (%d,%d) = %v, want %v", name, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestCrossStatesMatchesCrossFromStates: the inference kernel is == to
// CrossFromStates over the States of the same test rows, at every worker
// count and for empty, single-row and multi-row inputs, with and without a
// state cache.
func TestCrossStatesMatchesCrossFromStates(t *testing.T) {
	X := testData(rand.New(rand.NewSource(71)), 17, 6)
	for _, cached := range []bool{false, true} {
		q := defaultQuantum(6)
		if cached {
			q = cachedQuantum(6)
		}
		train, err := q.States(X[:8])
		if err != nil {
			t.Fatal(err)
		}
		for _, rows := range []int{0, 1, 4, 9} {
			test := X[8 : 8+rows]
			ts, err := q.States(test)
			if err != nil {
				t.Fatal(err)
			}
			want := CrossFromStates(ts, train, 1)
			for _, workers := range []int{1, 2, 3} {
				q.Workers = workers
				got, err := q.CrossStates(test, train, nil)
				if err != nil {
					t.Fatal(err)
				}
				checkSame(t, fmt.Sprintf("cached=%v rows=%d workers=%d", cached, rows, workers), want, got)
			}
		}
	}
}

// TestCrossStatesRejectsNilState: a nil training handle is an error, never
// a panic in the overlap.
func TestCrossStatesRejectsNilState(t *testing.T) {
	X := testData(rand.New(rand.NewSource(73)), 6, 6)
	q := defaultQuantum(6)
	train, err := q.States(X[:4])
	if err != nil {
		t.Fatal(err)
	}
	withNil := append([]*mps.MPS{nil}, train...)
	if _, err := q.CrossStates(X[4:], withNil, nil); err == nil {
		t.Fatal("nil training state accepted")
	}
}

// TestCrossStatesRejectsWidthMismatch: training handles of another width,
// and a test row of the wrong width, are errors, never a panic in the
// overlap.
func TestCrossStatesRejectsWidthMismatch(t *testing.T) {
	X := testData(rand.New(rand.NewSource(73)), 6, 6)
	q := defaultQuantum(6)
	train, err := q.States(X[:4])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := defaultQuantum(5).CrossStates([][]float64{X[4][:5]}, train, nil); err == nil {
		t.Fatal("6-qubit training states accepted by a 5-qubit ansatz")
	}
	bad := [][]float64{X[4], {0.5}, X[5]}
	if _, err := q.CrossStates(bad, train, nil); err == nil {
		t.Fatal("malformed test row accepted")
	}
}

// TestCrossStatesWarmCacheSimulatesOnlyTestRows: against simulated training
// states, the inference kernel simulates each test row once and never
// touches the training rows; a repeat of the same rows is all cache hits.
func TestCrossStatesWarmCacheSimulatesOnlyTestRows(t *testing.T) {
	X := testData(rand.New(rand.NewSource(79)), 13, 6)
	q := cachedQuantum(6)
	train, err := q.States(X[:8])
	if err != nil {
		t.Fatal(err)
	}
	before := q.Cache.Stats()
	if _, err := q.CrossStates(X[8:], train, nil); err != nil {
		t.Fatal(err)
	}
	mid := q.Cache.Stats()
	if sims, hits := mid.Misses-before.Misses, mid.Hits-before.Hits; sims != 5 || hits != 0 {
		t.Fatalf("cold test rows: %d simulations, %d hits, want 5 and 0", sims, hits)
	}
	if _, err := q.CrossStates(X[8:], train, nil); err != nil {
		t.Fatal(err)
	}
	end := q.Cache.Stats()
	if sims, hits := end.Misses-mid.Misses, end.Hits-mid.Hits; sims != 0 || hits != 5 {
		t.Fatalf("warm test rows: %d simulations, %d hits, want 0 and 5", sims, hits)
	}
}

// TestCrossStatesRowSpans: a traced call records one row span per test row
// directly under its parent, each carrying the row index and cache outcome.
func TestCrossStatesRowSpans(t *testing.T) {
	X := testData(rand.New(rand.NewSource(83)), 11, 6)
	q := cachedQuantum(6)
	train, err := q.States(X[:6])
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(obs.NewID(), "cross")
	if _, err := q.CrossStates(X[6:], train, tr.Root()); err != nil {
		t.Fatal(err)
	}
	tr.Root().End()
	spans := tr.Snapshot().Spans
	rows := map[any]bool{}
	for _, sp := range spans[1:] {
		if sp.Name != "row" || sp.Parent != spans[0].ID {
			t.Fatalf("span %q under %d, want only row spans under the root", sp.Name, sp.Parent)
		}
		if hit, ok := sp.Attrs["hit"].(bool); !ok || hit {
			t.Fatalf("row span attrs %v, want hit=false on a cold row", sp.Attrs)
		}
		rows[sp.Attrs["row"]] = true
	}
	if len(rows) != 5 {
		t.Fatalf("%d distinct row spans, want 5", len(rows))
	}
}

// TestConcurrentCrossStatesShareIdleWorkspaces: two inference calls running
// at once draw their per-worker workspaces from the same process-wide idle
// sets, and each still returns the kernel a lone call returns, ==. Run
// under -race, this checks that no workspace is handed to two calls.
func TestConcurrentCrossStatesShareIdleWorkspaces(t *testing.T) {
	X := testData(rand.New(rand.NewSource(89)), 20, 6)
	tests := [][][]float64{X[8:14], X[14:]}
	q := defaultQuantum(6)
	q.Workers = 2
	train, err := q.States(X[:8])
	if err != nil {
		t.Fatal(err)
	}
	want := make([][][]float64, len(tests))
	for i, test := range tests {
		if want[i], err = q.CrossStates(test, train, nil); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 4; round++ {
		got := make([][][]float64, len(tests))
		errs := make([]error, len(tests))
		var wg sync.WaitGroup
		for i, test := range tests {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = q.CrossStates(test, train, nil)
			}()
		}
		wg.Wait()
		for i := range tests {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			checkSame(t, fmt.Sprintf("round %d call %d", round, i), want[i], got[i])
		}
	}
}
