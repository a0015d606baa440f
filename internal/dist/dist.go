// Package dist is the simulated multi-process distribution layer of the
// paper's section II-D and Fig. 4: it computes the training Gram matrix by
// splitting the work across k simulated processes, each running on its own
// goroutine and scheduling its simulations and overlaps through
// kernel.EachRow on an equal share of the kernel's workers, and reproduces
// the two distribution strategies whose trade-off the paper measures:
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
package dist

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
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
	// Strategy selects the distribution scheme.
	Strategy Strategy
	// Transport is the wire carrying shard messages; nil selects
	// ChanTransport. The Gram matrix is transport-independent — only the
	// communication instrumentation changes.
	Transport Transport
	// Deadline bounds each shard receive during an exchange: a shard that
	// has not arrived within Deadline fails the computation with an error
	// that wraps ErrRecvTimeout and names the missing ranks, so no
	// computation can hang on a slow or dead peer. 0 selects
	// DefaultDeadline; negative disables the deadline (wait forever).
	Deadline time.Duration
	// Span, when non-nil, is the parent under which the computation records
	// its trace: one child span per rank (tracked rank+1 for side-by-side
	// timelines), simulate/exchange phase spans inside each, per-row
	// materialisation spans carrying the row index, cache outcome and χ, and
	// a shard_recv event per received shard. Nil (the default) records
	// nothing and costs one branch per instrumentation site.
	Span *obs.Span
}

// DefaultDeadline is generous enough that a healthy slow run never trips
// it, and tight enough that a dead rank is detected long before a user
// gives up on the process.
const DefaultDeadline = 30 * time.Second

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
}

// Result is a distributed kernel computation: the matrix itself, the total
// wall-clock, and per-process instrumentation.
type Result struct {
	// Gram is the square symmetric kernel matrix.
	Gram [][]float64
	// Wall is the end-to-end elapsed time of the computation.
	Wall time.Duration
	// Procs has one entry per simulated process, indexed by rank.
	Procs []ProcStats
	// States holds the simulated training states indexed like the input
	// rows — the handles a model retains so inference never re-simulates
	// the training set; each process contributes its owned shard.
	States []*mps.MPS
	// ObservedRowCosts is the measured per-row state-materialisation
	// wall-clock, indexed like the input rows — the ground truth for
	// calibrating EstimateRowCost online. Each entry is recorded by the rank
	// that owns the row; a cache hit records the (tiny) lookup time rather
	// than a simulation.
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

// TotalRetries is always 0: shard sends are not retried. It stays only
// because the benchmark's dist.retries metric reads it, and goes with that
// metric.
func (r *Result) TotalRetries() int { return 0 }

// TotalRecoveredRows is always 0: a lost shard fails the computation instead
// of being recomputed locally. It stays only because the benchmark's
// dist.recovered_rows metric reads it, and goes with that metric.
func (r *Result) TotalRecoveredRows() int { return 0 }

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
	kernel.Mirror(gram)
	return &Result{Gram: gram, Wall: time.Since(start), Procs: stats, States: retain, ObservedRowCosts: rowCosts}, nil
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
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	return m
}

// rankSpan opens one rank's span under the computation's parent, on its own
// display track (rank+1; track 0 stays with the coordinating caller).
func rankSpan(parent *obs.Span, p int) *obs.Span {
	sp := parent.Child("rank " + strconv.Itoa(p))
	sp.SetTrack(p + 1)
	return sp
}

// eachRank runs rank(p, sp) for every rank p in [0, k), each on its own
// goroutine under its own rank span — a rank may block on its peers (the
// round-robin barrier and exchange), so all k run at once — and returns the
// first error by rank.
func eachRank(k int, parent *obs.Span, rank func(p int, sp *obs.Span) error) error {
	errs := make([]error, k)
	var wg sync.WaitGroup
	for p := range k {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := rankSpan(parent, p)
			defer sp.End()
			errs[p] = rank(p, sp)
		}()
	}
	wg.Wait()
	return firstError(errs)
}

// rankWorkers is each rank's kernel.EachRow worker count: the k simulated
// ranks share the machine, so each gets an equal slice of the kernel's
// concurrency bound (Quantum.Workers, ≤ 0 selecting GOMAXPROCS), at least
// one.
func rankWorkers(q *kernel.Quantum, k int) int {
	total := q.Workers
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	return max(total/k, 1)
}

// simulateOwned materialises the states for the owned global indices of X
// through the cache-aware per-row kernel path, one kernel.EachRow task per
// row on workers goroutines. Results land in dst (parallel to owned) with
// per-process simulation/hit counts recorded into st. costs (parallel to
// owned) receives each row's own measured wall-clock — always positive, the
// per-row ground truth that calibrates EstimateRowCost. sp (nil to skip)
// receives one child span per row carrying the row index, cache outcome and
// resulting χ. Returns the first error by owned position.
func simulateOwned(q *kernel.Quantum, X [][]float64, owned []int, dst []*mps.MPS, workers int, st *ProcStats, costs []time.Duration, sp *obs.Span) error {
	hits := make([]bool, len(owned))
	errs := make([]error, len(owned))
	kernel.EachRow(len(owned), workers, func(a int, sw *mps.SimWorkspace, _ *mps.Workspace) {
		rowSp := sp.Child("row")
		rowSp.SetAttr("row", owned[a])
		t0 := time.Now()
		s, hit, err := q.StateCachedSpan(X[owned[a]], sw, rowSp)
		costs[a] = max(time.Since(t0), time.Nanosecond)
		if err != nil {
			rowSp.SetAttr("error", err.Error())
			rowSp.End()
			errs[a] = fmt.Errorf("dist: proc %d: state %d: %w", st.Rank, owned[a], err)
			return
		}
		if rowSp != nil {
			rowSp.SetAttr("hit", hit)
			rowSp.SetAttr("chi", s.MaxBond())
		}
		rowSp.End()
		dst[a], hits[a] = s, hit
	})
	for _, h := range hits {
		if h {
			st.CacheHits++
		} else {
			st.StatesSimulated++
		}
	}
	return firstError(errs)
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
