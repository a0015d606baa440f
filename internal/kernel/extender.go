package kernel

import (
	"fmt"
	"sync"

	"repro/internal/mps"
	"repro/internal/statecache"
)

// GramExtender maintains a growing quantum-kernel Gram matrix: the MPS of
// every seen point is kept (as the paper describes for inference: "Assuming
// the MPS of each of the quantum states from the training stage are stored
// in memory"), and adding a point costs one simulation plus N inner products
// instead of recomputing the O(N²) matrix. This supports online workflows —
// scoring a stream of new transactions against a trained model, or growing
// a training set incrementally.
//
// The extender owns a pooled simulation workspace and a pooled overlap
// workspace, so the steady-state cost of Add/KernelRow is the simulation and
// the overlaps themselves — no per-call gate-engine or contraction buffers.
// It also memoises the kernel fingerprint at construction (the extender's
// stored states are only meaningful while the kernel configuration is
// frozen, so the caching contract is unchanged).
type GramExtender struct {
	q  *Quantum
	fp string

	// wsMu guards the parked workspace pair. Concurrent calls that find the
	// slot empty allocate a transient pair; the last finisher parks its pair
	// for the next call, so a serial caller reaches zero steady-state
	// workspace allocations.
	wsMu sync.Mutex
	sw   *mps.SimWorkspace
	ow   *mps.Workspace

	mu     sync.Mutex
	states []*mps.MPS
	gram   [][]float64
}

// NewGramExtender starts an empty extender for the given kernel.
func NewGramExtender(q *Quantum) *GramExtender {
	return &GramExtender{q: q, fp: q.Fingerprint()}
}

// acquire takes the parked workspace pair (allocating fresh ones only when
// another call holds them); release parks a pair for the next caller.
func (e *GramExtender) acquire() (*mps.SimWorkspace, *mps.Workspace) {
	e.wsMu.Lock()
	sw, ow := e.sw, e.ow
	e.sw, e.ow = nil, nil
	e.wsMu.Unlock()
	if sw == nil {
		sw = mps.NewSimWorkspace()
	}
	if ow == nil {
		ow = mps.NewWorkspace()
	}
	return sw, ow
}

func (e *GramExtender) release(sw *mps.SimWorkspace, ow *mps.Workspace) {
	e.wsMu.Lock()
	e.sw, e.ow = sw, ow
	e.wsMu.Unlock()
}

// stateFor resolves the state for x through the kernel: a resident cache
// entry is returned allocation-free via the counter-neutral Probe, and
// anything else takes the full cached-simulation path (singleflight dedup,
// retention) threading the pooled gate-engine workspace through the miss.
func (e *GramExtender) stateFor(x []float64, sw *mps.SimWorkspace) (*mps.MPS, error) {
	if c := e.q.Cache; c != nil {
		if st, ok := c.Probe(statecache.KeyFor(e.fp, x)); ok {
			return st, nil
		}
	}
	st, _, err := e.q.StateCachedSpan(x, sw, nil)
	return st, err
}

// Len returns the number of points incorporated so far.
func (e *GramExtender) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.states)
}

// Add simulates x, extends the Gram matrix with its overlaps against every
// stored state, and returns the new point's index.
func (e *GramExtender) Add(x []float64) (int, error) {
	sw, ow := e.acquire()
	st, err := e.stateFor(x, sw)
	if err != nil {
		e.release(sw, ow)
		return 0, fmt.Errorf("kernel: extending gram: %w", err)
	}
	// Compute the new row outside the lock (the expensive part).
	e.mu.Lock()
	snapshot := e.states
	e.mu.Unlock()
	row := make([]float64, len(snapshot)+1)
	for j, s := range snapshot {
		row[j] = ow.Overlap(st, s)
	}
	row[len(snapshot)] = 1

	e.mu.Lock()
	if len(e.states) != len(snapshot) {
		// Another Add raced in; compute the missing overlaps under the lock
		// (rare path, keeps correctness simple).
		for j := len(snapshot); j < len(e.states); j++ {
			row = append(row[:len(row)-1], ow.Overlap(st, e.states[j]), 1)
		}
	}
	idx := len(e.states)
	e.states = append(e.states, st)
	for i := range e.gram {
		e.gram[i] = append(e.gram[i], row[i])
	}
	e.gram = append(e.gram, row)
	e.mu.Unlock()
	e.release(sw, ow)
	return idx, nil
}

// Gram returns a deep copy of the current Gram matrix.
func (e *GramExtender) Gram() [][]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([][]float64, len(e.gram))
	for i, r := range e.gram {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

// KernelRow computes the kernel row of an out-of-sample point against all
// stored states — the inference primitive (one simulation + N overlaps).
func (e *GramExtender) KernelRow(x []float64) ([]float64, error) {
	return e.KernelRowInto(x, nil)
}

// KernelRowInto is KernelRow writing into dst (grown only when too small):
// with a warm state cache and an adequately sized dst the call performs zero
// heap allocations — the repeated-scoring hot path a serving loop hits.
func (e *GramExtender) KernelRowInto(x []float64, dst []float64) ([]float64, error) {
	sw, ow := e.acquire()
	st, err := e.stateFor(x, sw)
	if err != nil {
		e.release(sw, ow)
		return nil, fmt.Errorf("kernel: inference row: %w", err)
	}
	e.mu.Lock()
	states := e.states
	e.mu.Unlock()
	if cap(dst) < len(states) {
		dst = make([]float64, len(states))
	}
	dst = dst[:len(states)]
	for j, s := range states {
		dst[j] = ow.Overlap(st, s)
	}
	e.release(sw, ow)
	return dst, nil
}

// MemoryBytes reports the total MPS storage held — the quantity the paper
// sizes when arguing 64,000 stored states fit in under 1 GiB for the d=1
// ansatz.
func (e *GramExtender) MemoryBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var b int64
	for _, s := range e.states {
		b += s.MemoryBytes()
	}
	return b
}
