package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// trainSmall fits a small model for serving tests.
func trainSmall(t *testing.T, features int) (*core.Framework, *core.Model, [][]float64) {
	t.Helper()
	full := dataset.GenerateElliptic(dataset.EllipticConfig{
		Features: features, NumIllicit: 30, NumLicit: 30, Seed: 1,
	})
	// 48-sample balanced subset → 38 train / 10 test rows after the 80/20
	// split; the coalescing tests need ≥8 test rows.
	train, test, err := dataset.PrepareSplit(full, 48, features, 1)
	if err != nil {
		t.Fatal(err)
	}
	if test.Len() < 8 {
		t.Fatalf("test split too small for the suite: %d rows", test.Len())
	}
	fw, err := core.New(core.Options{Features: features, C: 1, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := fw.Fit(train.X, train.Y)
	if err != nil {
		t.Fatal(err)
	}
	return fw, model, test.X
}

func newTestBatcher(t *testing.T, cfg Config) (*Batcher, *core.Framework, *core.Model, [][]float64) {
	t.Helper()
	fw, model, testX := trainSmall(t, 6)
	s, err := New(fw, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, fw, model, testX
}

// newGatedBatcher is newTestBatcher behind a dispatch gate: no dispatcher
// takes a job until the test sends on (or closes) the returned channel, so
// requests queue exactly as they would behind dispatchers that are all busy.
// One send frees one dispatcher for one batch.
func newGatedBatcher(t *testing.T, cfg Config) (*Batcher, chan struct{}, *core.Framework, *core.Model, [][]float64) {
	t.Helper()
	fw, model, testX := trainSmall(t, 6)
	gate := make(chan struct{})
	cfg.Gate = gate
	s, err := New(fw, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, gate, fw, model, testX
}

// TestSingleRequest: one submitted row comes back with the same score the
// in-process Predict produces.
func TestSingleRequest(t *testing.T) {
	s, fw, model, testX := newTestBatcher(t, Config{})
	want, err := fw.Predict(model, testX[:1])
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s.DoFullCtx(context.Background(), testX[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("scores %v, want %v", got, want)
	}
}

// TestConcurrentRequestsCoalesce is the batching acceptance check: N
// single-row requests that queue while every dispatcher is busy are answered
// by ONE underlying cross-kernel computation — the first dispatcher to free
// up takes everything already queued.
func TestConcurrentRequestsCoalesce(t *testing.T) {
	const n = 8
	s, gate, fw, model, testX := newGatedBatcher(t, Config{})
	want, err := fw.Predict(model, testX[:n])
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	scores := make([]float64, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, _, err := s.DoFullCtx(context.Background(), testX[i:i+1])
			errs[i] = err
			if err == nil && len(got) == 1 {
				scores[i] = got[0]
			}
		}(i)
	}
	waitFor(t, "all requests queued", func() bool { return s.Stats().QueuedJobs == n })
	gate <- struct{}{}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if scores[i] != want[i] {
			t.Fatalf("request %d: score %v, want %v (batched rows must scatter back in order)", i, scores[i], want[i])
		}
	}

	st := s.Stats()
	if st.Requests != n {
		t.Fatalf("stats count %d requests, want %d", st.Requests, n)
	}
	if st.CrossCalls != 1 {
		t.Fatalf("%d concurrent requests used %d cross-kernel calls, want exactly 1", n, st.CrossCalls)
	}
	if st.MaxBatchRows != n {
		t.Fatalf("max batch %d, want %d", st.MaxBatchRows, n)
	}
}

// TestQueueFullBackpressure: a depth-1 queue under a concurrent burst must
// shed load with ErrQueueFull rather than queueing unboundedly. With every
// dispatcher busy the outcome is exact: one request holds the slot, the rest
// are shed, and the held one is answered once a dispatcher frees up.
func TestQueueFullBackpressure(t *testing.T) {
	s, gate, _, _, testX := newGatedBatcher(t, Config{MaxBatch: 1, QueueDepth: 1})

	const burst = 24
	var wg sync.WaitGroup
	var mu sync.Mutex
	var served, shed int
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := s.DoFullCtx(context.Background(), testX[i%len(testX):i%len(testX)+1])
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				served++
			case errors.Is(err, ErrQueueFull):
				shed++
			default:
				t.Errorf("request %d: unexpected error %v", i, err)
			}
		}(i)
	}
	waitFor(t, "burst shed", func() bool { return s.Stats().Rejected == burst-1 })
	close(gate)
	wg.Wait()
	if shed != burst-1 || served != 1 {
		t.Fatalf("depth-1 queue behind busy dispatchers: served %d, shed %d; want 1 and %d", served, shed, burst-1)
	}
}

func TestRequestValidation(t *testing.T) {
	s, _, _, testX := newTestBatcher(t, Config{MaxRequestRows: 4})

	if _, _, err := s.DoFullCtx(context.Background(), nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("DoFullCtx(nil) = %v, want ErrBadRequest", err)
	}
	if _, _, err := s.DoFullCtx(context.Background(), [][]float64{{0.5, 0.5}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("DoFullCtx(narrow row) = %v, want ErrBadRequest", err)
	}
	wide := make([][]float64, 5)
	for i := range wide {
		wide[i] = testX[0]
	}
	if _, _, err := s.DoFullCtx(context.Background(), wide); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("DoFullCtx(oversized) = %v, want ErrTooLarge", err)
	}
}

// TestCloseDrains: Close must answer every request it admitted before
// returning — a Close facing a populated queue may not drop responses. The
// requests queue behind held dispatchers, so only the post-Close drain can
// answer them. Run both regimes: a MaxBatch that takes the whole remnant at
// once and a small one that forces the drain to split it into batches.
func TestCloseDrains(t *testing.T) {
	for _, cfg := range []Config{
		{MaxBatch: 64, QueueDepth: 64},
		{MaxBatch: 3, QueueDepth: 64},
	} {
		fw, model, testX := trainSmall(t, 6)
		cfg.Gate = make(chan struct{})
		s, err := New(fw, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fw.Predict(model, testX[:1])
		if err != nil {
			t.Fatal(err)
		}

		const n = 9
		var wg sync.WaitGroup
		scores := make([]float64, n)
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, _, err := s.DoFullCtx(context.Background(), testX[:1])
				errs[i] = err
				if err == nil && len(got) == 1 {
					scores[i] = got[0]
				}
			}(i)
		}
		// Wait until all N submissions are queued, then Close: every one of
		// them must still be answered.
		waitFor(t, "all requests queued", func() bool { return s.Stats().QueuedJobs == n })
		s.Close()
		wg.Wait()
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				t.Fatalf("MaxBatch=%d: request %d dropped by Close: %v", cfg.MaxBatch, i, errs[i])
			}
			if scores[i] != want[0] {
				t.Fatalf("MaxBatch=%d: request %d scored %v, want %v", cfg.MaxBatch, i, scores[i], want[0])
			}
		}
		if st := s.Stats(); st.Requests != n || st.MaxBatchRows > cfg.MaxBatch {
			t.Fatalf("MaxBatch=%d: drain accounting %+v", cfg.MaxBatch, st)
		}
	}
}

// TestLoneRequestDoesNotWait is the work-conserving rule: with a dispatcher
// free, a request is dispatched at once instead of waiting for company. Over
// sequential requests the median queue wait stays far below the 2 ms that a
// fixed batch window would add.
func TestLoneRequestDoesNotWait(t *testing.T) {
	s, _, _, testX := newTestBatcher(t, Config{})
	for i := range 50 {
		if _, _, err := s.DoFullCtx(context.Background(), testX[i%len(testX):i%len(testX)+1]); err != nil {
			t.Fatal(err)
		}
	}
	qw := s.Stats().QueueWaitSeconds
	if qw.Count != 50 {
		t.Fatalf("queue-wait histogram observed %d requests, want 50", qw.Count)
	}
	if p50 := qw.Quantile(0.5); p50 >= 0.5e-3 {
		t.Fatalf("median queue wait of a lone request %.3g ms, want < 0.5 ms", p50*1e3)
	}
}

// TestCloseAnswersInFlightBatches: Close called while every dispatcher is
// computing a batch, with more requests queued behind them and new ones
// racing the Close, answers every request it admitted; a racer it did not
// admit gets ErrClosed and nobody hangs. Meant for -race: the dispatchers
// share the queue, the counters and the framework.
func TestCloseAnswersInFlightBatches(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	queued, racers := 2*procs+3, 8
	s, gate, fw, model, testX := newGatedBatcher(t, Config{MaxBatch: 1, QueueDepth: queued + racers})
	// Distinct rows defeat the state cache, so every batch simulates and
	// stays in flight for a while.
	request := func(k int) [][]float64 {
		rows := make([][]float64, 16)
		for i := range rows {
			r := append([]float64(nil), testX[i%len(testX)]...)
			r[0] += float64(k*len(rows)+i) * 1e-4
			rows[i] = r
		}
		return rows
	}

	var wg sync.WaitGroup
	got := make([][]float64, queued+racers)
	errs := make([]error, queued+racers)
	submit := func(k int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k], _, errs[k] = s.DoFullCtx(context.Background(), request(k))
		}()
	}
	for k := range queued {
		submit(k)
	}
	waitFor(t, "requests queued", func() bool { return s.Stats().QueuedJobs == queued })
	for range procs {
		gate <- struct{}{} // each frees one dispatcher for one batch
	}
	for k := queued; k < queued+racers; k++ {
		submit(k)
	}
	s.Close()
	wg.Wait()

	answered := int64(0)
	for k, err := range errs {
		switch {
		case err == nil:
			answered++
			want, perr := fw.Predict(model, request(k))
			if perr != nil {
				t.Fatal(perr)
			}
			for i := range want {
				if got[k][i] != want[i] {
					t.Fatalf("request %d row %d: %v, want %v", k, i, got[k][i], want[i])
				}
			}
		case k < queued:
			t.Fatalf("request %d admitted before Close was dropped: %v", k, err)
		case !errors.Is(err, ErrClosed):
			t.Fatalf("racer %d: %v, want an answer or ErrClosed", k, err)
		}
	}
	if st := s.Stats(); st.Requests != answered || st.Batches != answered {
		t.Fatalf("%d answered, stats count %d requests in %d batches", answered, st.Requests, st.Batches)
	}
}

func TestCloseRejectsAndUnblocks(t *testing.T) {
	fw, model, testX := trainSmall(t, 6)
	s, err := New(fw, model, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, _, err := s.DoFullCtx(context.Background(), testX[:1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("DoFullCtx after Close = %v, want ErrClosed", err)
	}
}

func TestNewValidates(t *testing.T) {
	fw, model, _ := trainSmall(t, 6)
	if _, err := New(nil, model, Config{}); err == nil {
		t.Fatal("nil framework accepted")
	}
	if _, err := New(fw, nil, Config{}); err == nil {
		t.Fatal("nil model accepted")
	}
	narrow, err := core.New(core.Options{Features: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(narrow, model, Config{}); err == nil {
		t.Fatal("width-mismatched framework/model pair accepted")
	}
}

// TestOversizedRequestRunsAloneAsBatch: a request larger than MaxBatch (but
// within MaxRequestRows) is still served, as its own batch.
func TestOversizedRequestRunsAloneAsBatch(t *testing.T) {
	s, fw, model, testX := newTestBatcher(t, Config{MaxBatch: 2, MaxRequestRows: 16})
	want, err := fw.Predict(model, testX[:6])
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s.DoFullCtx(context.Background(), testX[:6])
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %v vs %v", i, got[i], want[i])
		}
	}
	if st := s.Stats(); st.MaxBatchRows != 6 {
		t.Fatalf("oversized request not dispatched as one batch: %+v", st)
	}
}
