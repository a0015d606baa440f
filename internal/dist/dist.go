// Package dist is the simulated multi-process distribution layer of the
// paper's section II-D and Fig. 4: it computes quantum-kernel Gram matrices
// by splitting the work across k simulated processes, each running on its
// own goroutine with a private worker pool, and reproduces the two
// distribution strategies whose trade-off the paper measures for the
// training Gram:
//
//   - RoundRobin: states are sharded across processes; each process
//     simulates only its shard and the shards are then exchanged through
//     messaging (serialised MPS payloads with per-message byte accounting)
//     so every pairwise overlap is computed exactly once.
//   - NoMessaging: Gram rows are sharded; each process redundantly
//     simulates every state its rows touch and communicates nothing,
//     trading simulation compute for zero communication volume.
//
// The strategies are written once against the pluggable Transport interface
// (transport.go); which wire actually carries the shards — the zero-cost
// in-process channels, the latency/bandwidth cost-modelled simulated network
// or real loopback TCP sockets — is an Options choice. Every combination
// produces Gram matrices identical to the serial kernel.Gram path — the
// agreement is enforced by the metamorphic suite, with only the
// instrumentation (CommTime, byte counts) allowed to differ. Per-process
// instrumentation separates simulation, inner-product and communication
// wall-clock so the Fig. 8 runtime breakdown can be reproduced faithfully.
//
// Inference (ComputeCrossStates) takes the training states already
// simulated, as the paper does when it stores the MPS: each process
// simulates only its share of the test rows and computes their overlaps
// against every training state, so no strategy applies and nothing crosses
// the wire.
package dist

import (
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/mps"
	"repro/internal/obs"
)

// Strategy selects how Gram-matrix work is split across the simulated
// processes (paper Fig. 4).
type Strategy int

const (
	// RoundRobin shards the states round-robin across processes and
	// exchanges the shards through messages on the configured transport.
	RoundRobin Strategy = iota
	// NoMessaging shards the Gram rows and simulates redundantly instead of
	// communicating.
	NoMessaging
)

// String returns the flag-style name used by cmd/qkernel and the benchmark
// sub-test names.
func (s Strategy) String() string {
	switch s {
	case RoundRobin:
		return "round-robin"
	case NoMessaging:
		return "no-messaging"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// ParseStrategy maps the flag-style names back to Strategy values.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "round-robin":
		return RoundRobin, nil
	case "no-messaging":
		return NoMessaging, nil
	default:
		return 0, fmt.Errorf("dist: unknown strategy %q (want round-robin or no-messaging)", name)
	}
}

// Options configures one distributed computation. The zero value is a
// single-process round-robin run on the in-process channel wire.
type Options struct {
	// Procs is the number of distributed processes; 0 selects 1.
	Procs int
	// Strategy selects the distribution scheme for ComputeGram. Inference
	// (ComputeCrossStates) exchanges nothing, so it ignores the strategy.
	Strategy Strategy
	// Transport is the wire carrying shard messages; nil selects
	// ChanTransport. The Gram matrix is transport-independent — only the
	// communication instrumentation changes.
	Transport Transport
	// Deadline bounds each shard receive during an exchange: a shard that
	// has not arrived within Deadline is treated as lost and its rows are
	// recovered locally (see recoverGram), so no computation can hang
	// unboundedly on a slow or dead peer. 0 selects DefaultDeadline;
	// negative disables the deadline (wait forever, the pre-fault-tolerance
	// behaviour).
	Deadline time.Duration
	// MaxRetries bounds the additional attempts for a shard send that fails
	// with a transient error. 0 selects DefaultMaxRetries; negative
	// disables retrying.
	MaxRetries int
	// Backoff is the base of the exponential backoff + deterministic jitter
	// between send retries (retryBackoff). 0 selects DefaultBackoff.
	Backoff time.Duration
	// Span, when non-nil, is the parent under which the computation records
	// its trace: one child span per rank (tracked rank+1 for side-by-side
	// timelines), simulate/exchange/recover phase spans inside each, per-row
	// materialisation spans carrying the row index, cache outcome and χ, and
	// point events for every retry, timeout, duplicate drop, dead-rank
	// envelope and recovered row. Nil (the default) records nothing and costs
	// one branch per instrumentation site.
	Span *obs.Span
}

// Fault-tolerance defaults: generous enough that a healthy slow run never
// trips them, tight enough that a dead rank is detected long before a user
// gives up on the process.
const (
	DefaultDeadline   = 30 * time.Second
	DefaultMaxRetries = 2
	DefaultBackoff    = 2 * time.Millisecond
)

func (o Options) withDefaults() Options {
	if o.Procs == 0 {
		o.Procs = 1
	}
	if o.Transport == nil {
		o.Transport = ChanTransport{}
	}
	switch {
	case o.Deadline == 0:
		o.Deadline = DefaultDeadline
	case o.Deadline < 0:
		o.Deadline = 0 // wait forever
	}
	switch {
	case o.MaxRetries == 0:
		o.MaxRetries = DefaultMaxRetries
	case o.MaxRetries < 0:
		o.MaxRetries = 0
	}
	if o.Backoff == 0 {
		o.Backoff = DefaultBackoff
	}
	return o
}

// ProcStats instruments one simulated process. Phase times are elapsed
// wall-clock within the process's own timeline, so for every process
// SimTime+InnerTime+CommTime ≤ the run's total Wall, and summed over all
// processes they bound the aggregate compute the cluster would spend.
type ProcStats struct {
	// Rank is the process index in [0, procs).
	Rank int
	// StatesSimulated counts feature-map circuit simulations actually
	// executed by this process (including redundant ones under NoMessaging
	// when no state cache is configured).
	StatesSimulated int
	// CacheHits counts states this process obtained from the shared state
	// cache (resident entries or joins on a peer's in-flight simulation)
	// instead of simulating. Zero when kernel.Quantum.Cache is nil.
	CacheHits int
	// InnerProducts counts kernel entries (pairwise overlaps) computed by
	// this process.
	InnerProducts int
	// MessagesSent counts messages (one shard transfer each) on the wire.
	MessagesSent int
	// BytesSent is the wire volume of those messages, including framing.
	BytesSent int64
	// SimTime is the wall-clock spent simulating states.
	SimTime time.Duration
	// InnerTime is the wall-clock spent computing overlaps.
	InnerTime time.Duration
	// CommTime is the wall-clock spent serialising, transferring and
	// deserialising shards (plus waiting on in-flight messages — under
	// SimTransport this includes the modelled wire time).
	CommTime time.Duration
	// Retries counts shard-send attempts repeated after a transient wire
	// failure (bounded by Options.MaxRetries per message).
	Retries int
	// Timeouts counts receive deadlines that expired while this process was
	// still owed shards (Options.Deadline); each expiry moves the process on
	// to local recovery of whatever was still missing.
	Timeouts int
	// RecoveredRows counts rows this process re-materialised locally because
	// a peer's shard never arrived — the no-messaging fallback that keeps
	// the Gram bit-identical despite lost messages or dead ranks.
	RecoveredRows int
	// DupsDropped counts duplicate shard deliveries discarded (the wire
	// delivered the same origin's shard more than once).
	DupsDropped int
	// SendFailures counts sends abandoned after the retry budget ran out;
	// the affected peers detect the missing shard and recover locally.
	SendFailures int
	// Crashed reports that this rank was killed mid-exchange (an injected
	// whole-rank crash); it published no results and its share of the
	// schedule was taken over by the survivors.
	Crashed bool
}

// Result is a distributed kernel computation: the matrix itself, the total
// wall-clock, and per-process instrumentation.
type Result struct {
	// Gram is the kernel matrix: square symmetric for ComputeGram,
	// rectangular test×train for ComputeCrossStates.
	Gram [][]float64
	// Wall is the end-to-end elapsed time of the computation.
	Wall time.Duration
	// Procs has one entry per simulated process, indexed by rank.
	Procs []ProcStats
	// States holds the simulated training states indexed like the input
	// rows — the handles a model retains so inference never re-simulates
	// the training set. Populated by ComputeGram (each process contributes
	// its owned shard); nil for ComputeCrossStates results.
	States []*mps.MPS
	// ObservedRowCosts is the measured per-row state-materialisation
	// wall-clock, indexed like the input rows (ComputeGram) or the test
	// rows (ComputeCrossStates) — the ground truth for calibrating
	// EstimateRowCost online. Each entry is recorded by the rank that owns
	// the row; a cache hit records the (tiny) lookup time rather than a
	// simulation.
	ObservedRowCosts []time.Duration
}

// MaxPhaseTimes returns, per phase, the maximum wall-clock over processes —
// the quantity that bounds completion of a bulk-synchronous phase and the
// bars of Fig. 8.
func (r *Result) MaxPhaseTimes() (sim, inner, comm time.Duration) {
	for _, p := range r.Procs {
		if p.SimTime > sim {
			sim = p.SimTime
		}
		if p.InnerTime > inner {
			inner = p.InnerTime
		}
		if p.CommTime > comm {
			comm = p.CommTime
		}
	}
	return sim, inner, comm
}

// TotalBytes sums the communication volume over all processes.
func (r *Result) TotalBytes() int64 {
	var b int64
	for _, p := range r.Procs {
		b += p.BytesSent
	}
	return b
}

// TotalMessages sums the message count over all processes.
func (r *Result) TotalMessages() int {
	m := 0
	for _, p := range r.Procs {
		m += p.MessagesSent
	}
	return m
}

// TotalCommTime sums the communication wall-clock over all processes — the
// aggregate wire time the cluster paid, as opposed to MaxPhaseTimes'
// completion bound.
func (r *Result) TotalCommTime() time.Duration {
	var c time.Duration
	for _, p := range r.Procs {
		c += p.CommTime
	}
	return c
}

// TotalCacheHits sums the state-cache hits over all processes.
func (r *Result) TotalCacheHits() int {
	h := 0
	for _, p := range r.Procs {
		h += p.CacheHits
	}
	return h
}

// TotalStatesSimulated sums the simulations actually executed over all
// processes — with a warm cache this is the work the cache did NOT save.
func (r *Result) TotalStatesSimulated() int {
	s := 0
	for _, p := range r.Procs {
		s += p.StatesSimulated
	}
	return s
}

// TotalRetries sums the shard-send retries over all processes.
func (r *Result) TotalRetries() int {
	n := 0
	for _, p := range r.Procs {
		n += p.Retries
	}
	return n
}

// TotalTimeouts sums the expired receive deadlines over all processes.
func (r *Result) TotalTimeouts() int {
	n := 0
	for _, p := range r.Procs {
		n += p.Timeouts
	}
	return n
}

// TotalRecoveredRows sums the locally recovered rows over all processes —
// zero on a healthy run, nonzero exactly when shards were lost or ranks
// died.
func (r *Result) TotalRecoveredRows() int {
	n := 0
	for _, p := range r.Procs {
		n += p.RecoveredRows
	}
	return n
}

// TotalDupsDropped sums the discarded duplicate deliveries over all
// processes.
func (r *Result) TotalDupsDropped() int {
	n := 0
	for _, p := range r.Procs {
		n += p.DupsDropped
	}
	return n
}

// ComputeGram computes the symmetric training Gram matrix K_ij = |⟨ψ_i,ψ_j⟩|²
// for X across opts.Procs processes under opts.Strategy, exchanging shards
// over opts.Transport. The result agrees with the serial kernel.Gram path
// entry for entry regardless of strategy or transport.
func ComputeGram(q *kernel.Quantum, X [][]float64, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := validate(q, opts.Procs); err != nil {
		return nil, err
	}
	start := time.Now()
	n := len(X)
	gram := square(n)
	stats := newStats(opts.Procs)
	// retain collects each process's owned shard so the caller can keep the
	// training-state handles (Result.States); ranks write disjoint indices.
	// rowCosts likewise: only a row's owning rank records its cost.
	retain := make([]*mps.MPS, n)
	rowCosts := make([]time.Duration, n)
	var err error
	switch opts.Strategy {
	case RoundRobin:
		// Shards are cost-balanced: rows are assigned by their predicted
		// χ-based simulation cost instead of equal counts, so a skewed input
		// cannot park all the heavy rows on one process (see balance.go).
		err = runGramRoundRobin(q, X, gram, retain, stats, costBalancedIndices(q.Ansatz, X, opts.Procs), opts, rowCosts)
	case NoMessaging:
		err = runGramNoMessaging(q, X, gram, retain, stats, rowCosts, opts.Span)
	default:
		return nil, fmt.Errorf("dist: unknown strategy %v", opts.Strategy)
	}
	if err != nil {
		return nil, err
	}
	mirror(gram)
	return &Result{Gram: gram, Wall: time.Since(start), Procs: stats, States: retain, ObservedRowCosts: rowCosts}, nil
}

// ComputeCrossStates computes the inference kernel against pre-simulated
// training states — the handles a trained model retained from its
// ComputeGram result. Only the test rows are simulated (consulting the
// state cache when one is configured); the training side is already
// resident on every process, so the exchange phase disappears entirely and
// the computation is communication-free on every transport.
func ComputeCrossStates(q *kernel.Quantum, testX [][]float64, trainStates []*mps.MPS, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := validate(q, opts.Procs); err != nil {
		return nil, err
	}
	for i, st := range trainStates {
		if st == nil {
			return nil, fmt.Errorf("dist: nil training state %d", i)
		}
		// A test row of the wrong width surfaces as a graceful
		// circuit-build error; a training handle of the wrong width must
		// too, not a panic inside the overlap zipper.
		if st.N != q.Ansatz.Qubits {
			return nil, fmt.Errorf("dist: training state %d has %d qubits, ansatz has %d", i, st.N, q.Ansatz.Qubits)
		}
	}
	start := time.Now()
	gram := rect(len(testX), len(trainStates))
	stats := newStats(opts.Procs)
	rowCosts := make([]time.Duration, len(testX))
	if err := runCrossLocal(q, testX, trainStates, gram, stats, rowCosts, opts.Span); err != nil {
		return nil, err
	}
	return &Result{Gram: gram, Wall: time.Since(start), Procs: stats, ObservedRowCosts: rowCosts}, nil
}

func validate(q *kernel.Quantum, procs int) error {
	if q == nil {
		return fmt.Errorf("dist: nil quantum kernel")
	}
	if procs < 1 {
		return fmt.Errorf("dist: procs must be ≥ 1, got %d", procs)
	}
	return nil
}

func newStats(procs int) []ProcStats {
	stats := make([]ProcStats, procs)
	for p := range stats {
		stats[p].Rank = p
	}
	return stats
}

// ownedIndices returns the indices in [0,n) assigned round-robin to rank p
// of k processes; empty when p ≥ n.
func ownedIndices(n, k, p int) []int {
	var idx []int
	for i := p; i < n; i += k {
		idx = append(idx, i)
	}
	return idx
}

func square(n int) [][]float64 {
	return rect(n, n)
}

func rect(rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
	}
	return m
}

// mirror copies the computed upper triangle into the lower one.
func mirror(gram [][]float64) {
	for i := range gram {
		for j := i + 1; j < len(gram); j++ {
			gram[j][i] = gram[i][j]
		}
	}
}

// simErrf formats a simulation failure; label names the shard ("test",
// "recovered") or is empty for a training-Gram shard.
func simErrf(rank int, label string, index int, err error) error {
	if label != "" {
		return fmt.Errorf("dist: proc %d: %s state %d: %w", rank, label, index, err)
	}
	return fmt.Errorf("dist: proc %d: state %d: %w", rank, index, err)
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
