package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestFaultClientCancelBeforeEnqueue: a context that is already dead never
// enters the queue — no accounting, no slot, ErrCanceled straight back.
func TestFaultClientCancelBeforeEnqueue(t *testing.T) {
	s, _, _, testX := newTestBatcher(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.DoCtx(ctx, testX[:1]); !errors.Is(err, ErrCanceled) {
		t.Fatalf("DoCtx with dead context = %v, want ErrCanceled", err)
	}
	st := s.Stats()
	if st.Requests != 0 || st.Canceled != 0 || st.QueuedJobs != 0 {
		t.Fatalf("dead context leaked accounting: %+v", st)
	}
}

// TestFaultClientCancelReleasesQueuedSlot: a request canceled while queued
// behind busy dispatchers is released by the dispatcher that reaches it —
// its rows are never computed, its admission accounting is undone, and the
// cancellation is counted.
func TestFaultClientCancelReleasesQueuedSlot(t *testing.T) {
	s, gate, _, _, testX := newGatedBatcher(t, Config{QueueDepth: 4})

	// Job A is dispatched and answered normally; afterwards every dispatcher
	// is held again.
	aDone := make(chan error, 1)
	go func() {
		_, err := s.DoCtx(context.Background(), testX[:1])
		aDone <- err
	}()
	waitFor(t, "job A queued", func() bool { return s.Stats().QueuedJobs == 1 })
	gate <- struct{}{}
	if err := <-aDone; err != nil {
		t.Fatalf("job A should complete normally: %v", err)
	}

	// Job B queues behind the held dispatchers and is canceled there.
	ctx, cancel := context.WithCancel(context.Background())
	bDone := make(chan error, 1)
	go func() {
		_, err := s.DoCtx(ctx, testX[1:2])
		bDone <- err
	}()
	waitFor(t, "job B queued", func() bool { return s.Stats().QueuedJobs == 1 })
	cancel()
	if err := <-bDone; !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled queued request = %v, want ErrCanceled", err)
	}

	// Free the dispatchers: the first to reach B releases it.
	close(gate)
	waitFor(t, "canceled slot released", func() bool { return s.Stats().Canceled == 1 })
	st := s.Stats()
	if st.Requests != 1 {
		t.Fatalf("released cancellation must undo admission accounting: %d requests, want 1", st.Requests)
	}
	if st.Batches != 1 {
		t.Fatalf("the canceled job must never be computed: %d batches, want 1", st.Batches)
	}
}

// waitFor polls cond with a generous deadline — the conditions are driven by
// live dispatcher goroutines, so the poll is about when, not whether.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
