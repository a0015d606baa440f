package serve

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestBatchTraceLinksEveryRequest: N traced requests queued behind busy
// dispatchers coalesce into one batch whose trace root links exactly the N
// request traces, and each request span gets the queue_wait / batch_compute
// / scatter phases that partition its enqueue→scatter interval.
func TestBatchTraceLinksEveryRequest(t *testing.T) {
	const n = 4
	tracer := obs.NewTracer(16)
	s, gate, _, _, testX := newGatedBatcher(t, Config{Obs: tracer})

	reqTraces := make([]*obs.Trace, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := tracer.StartTrace("", "request")
			reqTraces[c] = tr
			ctx := obs.ContextWithSpan(context.Background(), tr.Root())
			if _, err := s.DoCtx(ctx, testX[c:c+1]); err != nil {
				t.Error(err)
			}
			tracer.Finish(tr)
		}(c)
	}
	waitFor(t, "all requests queued", func() bool { return s.Stats().QueuedJobs == n })
	gate <- struct{}{}
	wg.Wait()

	var batchID string
	for _, id := range tracer.IDs() {
		if strings.HasPrefix(id, "batch-") {
			if batchID != "" {
				t.Fatalf("more than one batch trace in the ring (%s and %s) — requests did not coalesce", batchID, id)
			}
			batchID = id
		}
	}
	if batchID == "" {
		t.Fatal("no batch trace retained in the ring")
	}
	batchTr, ok := tracer.Get(batchID)
	if !ok {
		t.Fatal("batch trace vanished from the ring")
	}
	snap := batchTr.Snapshot()
	root := snap.Spans[0]
	if root.Parent != 0 {
		t.Fatalf("first snapshot span is not the root: %+v", root)
	}
	if len(root.Links) != n {
		t.Fatalf("batch root links %d request traces, want exactly %d: %v", len(root.Links), n, root.Links)
	}
	linked := map[string]bool{}
	for _, id := range root.Links {
		linked[id] = true
	}
	for c, tr := range reqTraces {
		if !linked[tr.ID()] {
			t.Errorf("request %d trace %s not linked from the batch root", c, tr.ID())
		}
	}
	if got, _ := root.Attrs["requests"].(int); got != n {
		t.Errorf("batch root requests attr = %v, want %d", root.Attrs["requests"], n)
	}

	// Each request span carries the three phases, back-linked to the batch,
	// partitioning [enqueue, scatter-end] with no gaps.
	for c, tr := range reqTraces {
		phases := map[string]obs.SpanJSON{}
		for _, sp := range tr.Snapshot().Spans {
			if sp.Parent != 0 {
				phases[sp.Name] = sp
			}
		}
		qw, okQW := phases["queue_wait"]
		bc, okBC := phases["batch_compute"]
		sc, okSC := phases["scatter"]
		if !okQW || !okBC || !okSC {
			t.Fatalf("request %d: missing phase spans, got %v", c, phases)
		}
		if len(bc.Links) != 1 || bc.Links[0] != batchID {
			t.Errorf("request %d: batch_compute links %v, want [%s]", c, bc.Links, batchID)
		}
		// Phase boundaries share the same wall instants (dispatch,
		// computeEnd); independent µs truncation of start and duration can
		// open a ≤2µs seam, never more.
		seam := func(a, b int64) int64 {
			if a > b {
				return a - b
			}
			return b - a
		}
		if seam(qw.StartUS+qw.DurUS, bc.StartUS) > 2 || seam(bc.StartUS+bc.DurUS, sc.StartUS) > 2 {
			t.Errorf("request %d: phases do not tile: qw [%d,%d) bc [%d,%d) sc [%d,%d)",
				c, qw.StartUS, qw.StartUS+qw.DurUS, bc.StartUS, bc.StartUS+bc.DurUS, sc.StartUS, sc.StartUS+sc.DurUS)
		}
	}

	// Histogram invariant: both latency histograms observed exactly the
	// accepted requests, and the +Inf bucket equals the total count.
	st := s.Stats()
	if st.RequestSeconds.Count != uint64(st.Requests) {
		t.Errorf("request histogram count %d != requests counter %d", st.RequestSeconds.Count, st.Requests)
	}
	if st.QueueWaitSeconds.Count != uint64(st.Requests) {
		t.Errorf("queue-wait histogram count %d != requests counter %d", st.QueueWaitSeconds.Count, st.Requests)
	}
	for _, snap := range []obs.HistogramSnapshot{st.RequestSeconds, st.QueueWaitSeconds} {
		if len(snap.Counts) > 0 && snap.Counts[len(snap.Counts)-1] > snap.Count {
			t.Errorf("largest cumulative bucket %d exceeds count %d", snap.Counts[len(snap.Counts)-1], snap.Count)
		}
	}
}

// TestUntracedRequestsStillObserved: with no tracer the batcher records no
// traces but the latency histograms still fill — histograms are always
// live, tracing is opt-in.
func TestUntracedRequestsStillObserved(t *testing.T) {
	s, _, _, testX := newTestBatcher(t, Config{})
	if _, err := s.Do(testX[:1]); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.RequestSeconds.Count != 1 || st.QueueWaitSeconds.Count != 1 {
		t.Fatalf("histogram counts %d/%d, want 1/1", st.RequestSeconds.Count, st.QueueWaitSeconds.Count)
	}
	if st.RequestSeconds.Sum <= 0 {
		t.Fatalf("request latency sum %g, want > 0", st.RequestSeconds.Sum)
	}
}
