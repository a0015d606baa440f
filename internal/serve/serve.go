// Package serve is the batching layer of the inference service: it keeps a
// trained model (core.Model, usually loaded via core.LoadModel) resident and
// answers prediction requests online through a micro-batching queue, turning
// the batch Fit→Predict reproduction into a long-running service.
//
// The service is split into three layers with this package at the bottom:
//
//   - serve (this package) — the per-model Batcher: a micro-batching request
//     queue in front of one resident model.
//   - serve/registry — a named-model registry that owns N Batchers under one
//     shared state-cache byte budget and hot-swaps models atomically.
//   - serve/http — the router: the /v1/models/{name}/predict HTTP surface,
//     per-API-key rate limits, admin reload, and Prometheus metrics with
//     per-model label dimensions.
//
// Dispatch is work-conserving. Each Batcher runs one dispatcher goroutine
// per GOMAXPROCS over a shared queue. A dispatcher blocks for one request,
// adds whatever else is already queued (up to MaxBatch rows) without waiting
// for more, and answers the batch with a single cross-kernel call whose rows
// are then scattered back to their requesters. A request is therefore
// dispatched the moment a core is free — there is no batch window to sleep
// out — and coalescing happens exactly when it pays: while every dispatcher
// is busy computing, arrivals pile up and the next free dispatcher takes
// them as one batch, amortising the overlap workspaces and worker pools
// across every row it carries. There is one dispatcher per core rather than
// one in total because a 1-row batch keeps one core busy: each row's
// simulation is independent work, so concurrent small batches fill the
// cores that a single dispatcher would leave idle. Each Batcher has its own
// queue and dispatchers, so in a multi-model deployment one cold or slow
// model can never stall another model's batches.
//
// Backpressure is explicit: the request queue is bounded (QueueDepth jobs)
// and a full queue rejects immediately with ErrQueueFull, which the HTTP
// layer maps to 429 — clients retry with backoff instead of piling latency
// onto everyone else's batches.
//
// Close is graceful: it stops admission (later DoFullCtx calls fail with
// ErrClosed) and then drains — every request accepted before Close is still
// answered, so a registry hot swap can retire the old model's Batcher with
// zero dropped in-flight requests.
package serve

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/statecache"
)

// Tunable defaults; see Config.
const (
	DefaultMaxBatch       = 32
	DefaultQueueDepth     = 64
	DefaultMaxRequestRows = 1024
)

// ErrQueueFull is returned when the request queue is at QueueDepth — the
// batcher is saturated and the caller should back off (HTTP 429).
var ErrQueueFull = errors.New("serve: request queue full")

// ErrClosed is returned for requests submitted after Close (HTTP 503).
var ErrClosed = errors.New("serve: server closed")

// ErrBadRequest wraps structurally invalid requests — empty, or rows whose
// width does not match the model (HTTP 400).
var ErrBadRequest = errors.New("serve: bad request")

// ErrTooLarge wraps requests carrying more rows than MaxRequestRows
// (HTTP 413).
var ErrTooLarge = errors.New("serve: request too large")

// ErrCanceled is returned when the request's context ends before its batch
// is answered — typically a client that disconnected. The queued slot is
// released without computing the dead request (HTTP 499 by nginx
// convention).
var ErrCanceled = errors.New("serve: request canceled")

// Config tunes the Batcher.
type Config struct {
	// MaxBatch caps coalescing: a dispatcher stops adding queued requests to
	// a batch once it holds this many rows. A single oversized request still
	// runs (as its own batch). Default 32.
	MaxBatch int
	// QueueDepth bounds the number of requests waiting to join a batch;
	// beyond it DoFullCtx returns ErrQueueFull. Default 64.
	QueueDepth int
	// MaxRequestRows caps the rows a single request may carry (HTTP 413
	// beyond it). Default 1024.
	MaxRequestRows int
	// Obs, when non-nil, records one trace per dispatched batch (retained in
	// the tracer's ring): the batch root links every coalesced request's
	// trace, and the kernel spans of the batched Predict nest under it. Each
	// request span travelling in a DoFullCtx context additionally gets its
	// queue_wait / batch_compute / scatter phases reconstructed at scatter
	// time. Nil disables batch traces; the latency histograms below are
	// always live.
	Obs *obs.Tracer
	// Gate, when non-nil, must yield a value before a dispatcher takes its
	// next job from the queue (a closed gate never holds). Tests use it to
	// hold every dispatcher while they fill the queue; leave it nil to
	// serve. Close drains the queue regardless of the gate.
	Gate <-chan struct{}
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MaxRequestRows <= 0 {
		c.MaxRequestRows = DefaultMaxRequestRows
	}
	return c
}

// Stats is a point-in-time snapshot of one Batcher's counters.
type Stats struct {
	// Requests counts accepted prediction requests; Rows the data rows they
	// carried.
	Requests, Rows int64
	// Batches counts dispatched micro-batches and CrossCalls the underlying
	// cross-kernel computations — one per batch, so under concurrent load
	// CrossCalls ≪ Requests is the signature of working coalescing.
	Batches, CrossCalls int64
	// MaxBatchRows is the largest batch dispatched so far.
	MaxBatchRows int
	// Rejected counts requests refused with ErrQueueFull; Errors counts
	// batches whose kernel computation failed.
	Rejected, Errors int64
	// Canceled counts requests whose context ended while they were queued;
	// their slot was released without computing the dead request.
	Canceled int64
	// Calibrated reports whether the resident model carries a conformal
	// predictor; Abstentions counts rows it answered with the two-class
	// (ambiguous) prediction set. Always zero on a score-only model.
	Calibrated  bool
	Abstentions int64
	// QueuedJobs is the current queue occupancy.
	QueuedJobs int
	// PredictWall is the cumulative wall-clock inside the batched kernel
	// calls; WaitWall the cumulative time requests spent queued before their
	// batch dispatched. Their ratio per request is the batching overhead.
	PredictWall, WaitWall time.Duration
	// Cache snapshots the model's state cache (hit/latency counters).
	Cache statecache.Stats
	// Comm snapshots the model framework's cumulative distributed-wire
	// counters (transport name, messages, bytes, comm wall-clock). Only a
	// Fit sends shard messages and a server never fits, so the counts read
	// zero by construction.
	Comm core.CommStats
	// RequestSeconds is the end-to-end request latency histogram (enqueue to
	// scatter) and QueueWaitSeconds the queue-wait component (enqueue to
	// batch dispatch), both in cumulative Prometheus form — the /metrics
	// histogram families, and where p50/p99 come from.
	RequestSeconds   obs.HistogramSnapshot
	QueueWaitSeconds obs.HistogramSnapshot
	// ConfidenceBuckets is the per-row conformal confidence histogram on a
	// calibrated model (the qkernel_serve_confidence family); empty counts
	// on a score-only model.
	ConfidenceBuckets obs.HistogramSnapshot
	// Uptime is the time since New.
	Uptime time.Duration
}
