package dist

import (
	"testing"

	"repro/internal/obs"
)

// snapshotEventCounts flattens a trace snapshot into event-name → count.
func snapshotEventCounts(tr *obs.Trace) map[string]int {
	out := map[string]int{}
	for _, sp := range tr.Snapshot().Spans {
		for _, ev := range sp.Events {
			out[ev.Name]++
		}
	}
	return out
}

// spanNames flattens a trace snapshot into span-name → count.
func spanNames(tr *obs.Trace) map[string]int {
	out := map[string]int{}
	for _, sp := range tr.Snapshot().Spans {
		out[sp.Name]++
	}
	return out
}

// TestGramTraceSpanTree: a healthy round-robin Gram under a trace records
// one rank span per process (on its own track), each carrying the
// simulate/exchange phases, with one row span per owned training row.
func TestGramTraceSpanTree(t *testing.T) {
	X := testData(t, 12, 6)
	q := testKernel(6)
	tr := obs.NewTrace(obs.NewID(), "gram")
	const procs = 3
	res, err := ComputeGram(q, X, Options{Procs: procs, Strategy: RoundRobin, Span: tr.Root()})
	if err != nil {
		t.Fatal(err)
	}
	tr.Root().End()

	names := spanNames(tr)
	tracks := map[int]bool{}
	for _, sp := range tr.Snapshot().Spans {
		if sp.Track != 0 {
			tracks[sp.Track] = true
		}
	}
	for p := 0; p < procs; p++ {
		if names["rank "+string(rune('0'+p))] != 1 {
			t.Errorf("rank %d span count = %d, want 1", p, names["rank "+string(rune('0'+p))])
		}
		if !tracks[p+1] {
			t.Errorf("no span on track %d (rank %d's timeline)", p+1, p)
		}
	}
	for _, phase := range []string{"simulate", "exchange_send", "local_triangle", "exchange_recv"} {
		if names[phase] != procs {
			t.Errorf("%q span count = %d, want %d (one per rank)", phase, names[phase], procs)
		}
	}
	if names["row"] != len(X) {
		t.Errorf("row span count = %d, want %d (one per training row)", names["row"], len(X))
	}
	// Every row span must carry its row index and χ attrs.
	for _, sp := range tr.Snapshot().Spans {
		if sp.Name != "row" {
			continue
		}
		if _, ok := sp.Attrs["row"]; !ok {
			t.Fatalf("row span %d missing 'row' attr: %v", sp.ID, sp.Attrs)
		}
		if _, ok := sp.Attrs["chi"]; !ok {
			t.Fatalf("row span %d missing 'chi' attr: %v", sp.ID, sp.Attrs)
		}
	}
	// Every rank records one shard_recv event per peer's shard.
	if got := snapshotEventCounts(tr)["shard_recv"]; got != procs*(procs-1) {
		t.Errorf("shard_recv event count = %d, want %d", got, procs*(procs-1))
	}
	// The benchmark still reads the retry and recovery counters; they stay 0.
	if res.TotalRetries()+res.TotalRecoveredRows() != 0 {
		t.Fatalf("retry/recovery counters read %d and %d, want 0", res.TotalRetries(), res.TotalRecoveredRows())
	}
}
