package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/conformal"
	"repro/internal/core"
	"repro/internal/obs"
)

// confidenceBounds are the histogram buckets for per-row conformal
// confidence: coarse below the action region and fine near 1, where the
// auto-decide criterion (confidence > 1−α) lives.
var confidenceBounds = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1}

// job is one request travelling through the batching queue.
type job struct {
	rows   [][]float64
	enq    time.Time
	scores []float64
	// preds are the per-row calibrated predictions, nil when the resident
	// model is score-only.
	preds []conformal.Prediction
	err   error
	done  chan struct{}
	// span is the request's trace span (from the DoFullCtx context), nil
	// when the request is untraced. At scatter time the dispatcher reconstructs
	// the request's queue_wait / batch_compute / scatter phases under it.
	span *obs.Span
	// canceled marks a job whose submitter gave up (context ended) while it
	// was queued. The dispatcher checks it at gather time and releases the
	// slot instead of computing the dead request; a job gathered before the
	// mark is computed normally (its submitter already returned).
	canceled atomic.Bool
}

// Batcher owns one resident model and the dispatchers in front of it. Create
// with New, submit via DoFullCtx, stop with Close. In a multi-model deployment
// the registry owns one Batcher per model, so each model has its own queue
// and dispatchers.
type Batcher struct {
	fw    *core.Framework
	model *core.Model
	cfg   Config
	queue chan *job
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
	start time.Time
	// gate, when non-nil, must yield a value before a dispatcher takes its
	// next job from the queue (a closed gate never holds). Tests use it to
	// keep every dispatcher busy while they queue requests; nil in
	// production. Close drains the queue regardless of the gate.
	gate chan struct{}

	// reqHist observes end-to-end request latency (enqueue → scatter) and
	// qwHist its queue-wait component (enqueue → batch dispatch); confHist
	// observes per-row conformal confidence on a calibrated model. Atomic —
	// observed outside the counter mutex.
	reqHist  *obs.Histogram
	qwHist   *obs.Histogram
	confHist *obs.Histogram

	mu           sync.Mutex
	requests     int64
	rows         int64
	batches      int64
	rejected     int64
	canceled     int64
	errs         int64
	abstentions  int64
	maxBatchRows int
	predictWall  time.Duration
	waitWall     time.Duration
}

// New validates the pair and starts one dispatcher per GOMAXPROCS. The model
// should be the framework's own (Fit output or core.LoadModel pair): width
// mismatches are rejected here rather than per-request.
func New(fw *core.Framework, model *core.Model, cfg Config) (*Batcher, error) {
	return newBatcher(fw, model, cfg, nil)
}

// newBatcher is New with a dispatch gate (see Batcher.gate).
func newBatcher(fw *core.Framework, model *core.Model, cfg Config, gate chan struct{}) (*Batcher, error) {
	if fw == nil || model == nil || model.SVM == nil {
		return nil, fmt.Errorf("serve: nil framework or model")
	}
	features := fw.Options().Features
	if len(model.TrainX) == 0 || len(model.TrainX[0]) != features {
		return nil, fmt.Errorf("serve: model training rows do not match the framework's %d features", features)
	}
	s := &Batcher{
		fw:       fw,
		model:    model,
		cfg:      cfg.withDefaults(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		start:    time.Now(),
		gate:     gate,
		reqHist:  obs.NewHistogram(),
		qwHist:   obs.NewHistogram(),
		confHist: obs.NewHistogram(confidenceBounds...),
	}
	s.queue = make(chan *job, s.cfg.QueueDepth)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.dispatch()
		}()
	}
	go func() {
		wg.Wait()
		close(s.done)
	}()
	return s, nil
}

// Framework returns the framework the resident model is served under.
func (s *Batcher) Framework() *core.Framework { return s.fw }

// Model returns the resident model.
func (s *Batcher) Model() *core.Model { return s.model }

// Close stops admission — future DoFullCtx calls fail with ErrClosed — then
// drains: every request accepted before Close is still answered before Close
// returns. The drain is what lets a hot swap retire the old model's Batcher
// with zero dropped in-flight requests. Safe to call more than once.
func (s *Batcher) Close() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// DoFullCtx submits rows for prediction and blocks until their batch is
// answered. It is the in-process equivalent of POST /predict: rows from calls
// that queue while every dispatcher is busy coalesce into shared kernel
// computations. It returns both the raw decision scores and — when the
// resident model is calibrated — the per-row conformal predictions
// (prediction set, p-values, confidence, abstain/outlier flags), computed
// once per batch from the same scores; on a score-only model the prediction
// slice is nil.
//
// If ctx ends while the request is still queued, DoFullCtx returns
// ErrCanceled immediately and a dispatcher releases the slot when it reaches
// the job — the dead request's rows are never computed. A cancellation that
// races the batch dispatch may still compute the rows (they were already
// gathered); the caller gets ErrCanceled either way.
func (s *Batcher) DoFullCtx(ctx context.Context, rows [][]float64) ([]float64, []conformal.Prediction, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCanceled, err)
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("%w: no rows", ErrBadRequest)
	}
	if len(rows) > s.cfg.MaxRequestRows {
		return nil, nil, fmt.Errorf("%w: %d rows, limit %d", ErrTooLarge, len(rows), s.cfg.MaxRequestRows)
	}
	features := s.fw.Options().Features
	for i, r := range rows {
		if len(r) != features {
			return nil, nil, fmt.Errorf("%w: row %d has %d features, model expects %d", ErrBadRequest, i, len(r), features)
		}
	}
	j := &job{rows: rows, enq: time.Now(), done: make(chan struct{}), span: obs.SpanFromContext(ctx)}
	select {
	case <-s.stop:
		return nil, nil, ErrClosed
	default:
	}
	// Count the request before the enqueue so a concurrent stats scrape can
	// never observe the batch side (Batches/CrossCalls) ahead of Requests;
	// a rejected request is uncounted again under the same lock.
	s.mu.Lock()
	s.requests++
	s.rows += int64(len(rows))
	s.mu.Unlock()
	select {
	case s.queue <- j:
	default:
		s.mu.Lock()
		s.requests--
		s.rows -= int64(len(rows))
		s.rejected++
		s.mu.Unlock()
		return nil, nil, ErrQueueFull
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		// Mark the job dead so a dispatcher releases its slot (and its
		// accounting) instead of computing it, then check whether the batch
		// won the race anyway — if the job was already answered, prefer the
		// answer's accounting but still report the cancellation to the
		// (gone) caller.
		j.canceled.Store(true)
		select {
		case <-j.done:
		default:
		}
		return nil, nil, fmt.Errorf("%w: %v", ErrCanceled, ctx.Err())
	case <-s.done:
		// Every dispatcher exited; they drained and answered the queue
		// before done closed, but a job that squeezed past the stop check
		// and enqueued after the final drain would never be answered — check
		// rather than block forever.
		select {
		case <-j.done:
		default:
			s.mu.Lock()
			s.requests--
			s.rows -= int64(len(j.rows))
			s.mu.Unlock()
			return nil, nil, ErrClosed
		}
	}
	return j.scores, j.preds, j.err
}

// releaseCanceled releases a canceled job a dispatcher pulled from the
// queue: the admission-time accounting is undone, the cancellation counted,
// and the job answered (its submitter has already returned, but answering
// keeps every pulled job's lifecycle uniform).
func (s *Batcher) releaseCanceled(j *job) {
	s.mu.Lock()
	s.requests--
	s.rows -= int64(len(j.rows))
	s.canceled++
	s.mu.Unlock()
	j.err = ErrCanceled
	close(j.done)
}

// Stats snapshots the counters.
func (s *Batcher) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Requests:          s.requests,
		Rows:              s.rows,
		Batches:           s.batches,
		CrossCalls:        s.batches, // one kernel computation per batch
		MaxBatchRows:      s.maxBatchRows,
		Rejected:          s.rejected,
		Canceled:          s.canceled,
		Errors:            s.errs,
		Abstentions:       s.abstentions,
		Calibrated:        s.model.Calibrated(),
		QueuedJobs:        len(s.queue),
		PredictWall:       s.predictWall,
		WaitWall:          s.waitWall,
		Cache:             s.fw.CacheStats(),
		Comm:              s.fw.CommStats(),
		RowCosts:          s.fw.RowCostStats(),
		RequestSeconds:    s.reqHist.Snapshot(),
		QueueWaitSeconds:  s.qwHist.Snapshot(),
		ConfidenceBuckets: s.confHist.Snapshot(),
		Uptime:            time.Since(s.start),
	}
}

// dispatch is one of the Batcher's GOMAXPROCS dispatchers. It is
// work-conserving: it blocks for one job, adds whatever is already queued
// without waiting for more, and answers the batch with one kernel call. A
// request therefore dispatches the moment a dispatcher is free; coalescing
// happens only while every dispatcher is busy computing. After Close each
// dispatcher drains the queue, so every admitted job is answered before done
// closes.
func (s *Batcher) dispatch() {
	for {
		if s.gate != nil {
			select {
			case <-s.gate:
			case <-s.stop:
				s.drain()
				return
			}
		}
		select {
		case j := <-s.queue:
			if batch, rows := s.gather(j); len(batch) > 0 {
				s.process(batch, rows)
			}
		case <-s.stop:
			s.drain()
			return
		}
	}
}

// drain answers what is left in the queue, in coalesced batches, so Close
// never drops a request it admitted.
func (s *Batcher) drain() {
	for {
		batch, rows := s.gather(nil)
		if len(batch) == 0 {
			return
		}
		s.process(batch, rows)
	}
}

// gather builds one batch from first (which may be nil) and the jobs already
// queued, never blocking, until it holds MaxBatch rows or the queue is
// empty. Canceled jobs are released on the way and never join a batch. An
// empty batch means the queue was empty.
func (s *Batcher) gather(first *job) (batch []*job, rows int) {
	j := first
	for {
		if j != nil {
			if j.canceled.Load() {
				s.releaseCanceled(j)
			} else {
				batch = append(batch, j)
				rows += len(j.rows)
			}
		}
		if rows >= s.cfg.MaxBatch {
			return batch, rows
		}
		select {
		case j = <-s.queue:
		default:
			return batch, rows
		}
	}
}

// process answers one coalesced batch with a single Predict (one underlying
// cross-kernel computation) and scatters the scores back per job. With a
// tracer configured it records one batch trace whose root links every
// coalesced request's trace, and reconstructs each request's queue_wait /
// batch_compute / scatter phases on its span — the phases partition the
// enqueue→scatter interval exactly, which is also what the latency histogram
// observes.
func (s *Batcher) process(batch []*job, rowCount int) {
	all := make([][]float64, 0, rowCount)
	dispatch := time.Now()
	var queued time.Duration
	for _, j := range batch {
		all = append(all, j.rows...)
		queued += dispatch.Sub(j.enq)
	}

	var batchTr *obs.Trace
	pctx := context.Background()
	if s.cfg.Obs.Enabled() {
		batchTr = s.cfg.Obs.StartTrace("batch-"+obs.NewID(), "batch")
		root := batchTr.Root()
		root.SetAttr("requests", len(batch))
		root.SetAttr("rows", rowCount)
		for _, j := range batch {
			root.Link(j.span.TraceID())
		}
		pctx = obs.ContextWithSpan(pctx, root)
	}

	scores, err := s.fw.PredictCtx(pctx, s.model, all)
	computeEnd := time.Now()
	elapsed := computeEnd.Sub(dispatch)

	// Calibrated models answer with prediction sets computed from the same
	// scores — pure arithmetic over the calibration quantiles, no extra
	// kernel work. Score-only models skip this entirely (preds stays nil).
	var preds []conformal.Prediction
	var abstained int64
	if err == nil && s.model.Calibrated() {
		preds = s.model.Conformal.PredictBatch(scores)
		for _, pr := range preds {
			if pr.Abstain {
				abstained++
			}
			s.confHist.Observe(pr.Confidence)
		}
	}

	s.mu.Lock()
	s.batches++
	s.predictWall += elapsed
	s.waitWall += queued
	s.abstentions += abstained
	if rowCount > s.maxBatchRows {
		s.maxBatchRows = rowCount
	}
	if err != nil {
		s.errs++
	}
	s.mu.Unlock()

	off := 0
	for _, j := range batch {
		if err != nil {
			j.err = fmt.Errorf("serve: batch of %d rows failed: %w", rowCount, err)
		} else {
			j.scores = scores[off : off+len(j.rows) : off+len(j.rows)]
			if preds != nil {
				j.preds = preds[off : off+len(j.rows) : off+len(j.rows)]
			}
		}
		off += len(j.rows)
		finish := time.Now()
		if j.span != nil {
			// Phases are reconstructed retroactively from the shared batch
			// timeline; they partition [enq, finish] with no gaps, so their
			// sum equals the histogram-observed latency by construction.
			qw := j.span.ChildAt("queue_wait", j.enq)
			qw.EndAt(dispatch)
			bc := j.span.ChildAt("batch_compute", dispatch)
			bc.Link(batchTr.ID())
			bc.SetAttr("batch_rows", rowCount)
			bc.EndAt(computeEnd)
			sc := j.span.ChildAt("scatter", computeEnd)
			sc.EndAt(finish)
		}
		s.reqHist.Observe(finish.Sub(j.enq).Seconds())
		s.qwHist.Observe(dispatch.Sub(j.enq).Seconds())
	}
	if batchTr != nil {
		s.cfg.Obs.Finish(batchTr)
	}
	// Answer last, so a requester that returns already sees its batch in the
	// histograms, the counters and the trace ring.
	for _, j := range batch {
		close(j.done)
	}
}
