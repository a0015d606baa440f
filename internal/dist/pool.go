package dist

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernel"
	"repro/internal/mps"
	"repro/internal/obs"
)

// pool runs one simulated process's intra-process work (state simulations,
// overlap batches) on a bounded set of goroutines — the analogue of the
// cores available inside one node of the cluster.
type pool struct {
	workers int
	// ws holds one overlap workspace per worker slot and sim one gate-engine
	// workspace (with its bound circuit and scratch state) per slot. Each is
	// acquired on first use from mps's process-wide idle set, reused across every
	// call the pool makes (a round-robin Gram makes one runWS call per ring
	// step) and given back by release when the caller is done, so the next
	// Gram or served batch starts from warmed buffers instead of re-growing
	// them.
	ws  []*mps.Workspace
	sim []*mps.SimWorkspace
}

// procPool sizes a process's worker pool: the k simulated processes share
// the physical machine, so each gets an equal slice of the kernel's
// concurrency bound (Quantum.Workers, defaulting to GOMAXPROCS), at least
// one worker. The caller must release it when its last call has returned.
func procPool(q *kernel.Quantum, k int) pool {
	total := q.Workers
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	w := total / k
	if w < 1 {
		w = 1
	}
	return pool{workers: w, ws: make([]*mps.Workspace, w), sim: make([]*mps.SimWorkspace, w)}
}

// workspace returns worker slot g's overlap workspace. Calls on one pool
// never overlap in time and each slot is touched by one goroutine per call,
// so lazy drawing is race-free.
func (pl pool) workspace(g int) *mps.Workspace {
	if pl.ws[g] == nil {
		pl.ws[g] = mps.AcquireWorkspace()
	}
	return pl.ws[g]
}

// simWorkspace returns worker slot g's gate-engine workspace, under the same
// single-goroutine-per-slot discipline as workspace.
func (pl pool) simWorkspace(g int) *mps.SimWorkspace {
	if pl.sim[g] == nil {
		pl.sim[g] = mps.AcquireSimWorkspace()
	}
	return pl.sim[g]
}

// release gives every workspace the pool acquired back to the process-wide
// idle sets. The pool must not be used afterwards.
func (pl pool) release() {
	for g, w := range pl.ws {
		if w != nil {
			w.Release()
			pl.ws[g] = nil
		}
	}
	for g, w := range pl.sim {
		if w != nil {
			w.Release()
			pl.sim[g] = nil
		}
	}
}

// runWS runs f(i) for every i in [0,n) with a private overlap workspace
// per worker goroutine, so overlap batches reuse transfer-matrix buffers
// instead of allocating per pair.
func (pl pool) runWS(n int, f func(ws *mps.Workspace, i int)) {
	pl.runSlot(n, func(slot, i int) { f(pl.workspace(slot), i) })
}

// runSlot is the scheduling core: f(slot, i) for every i in [0,n), where
// slot identifies the worker goroutine so callers can attach per-worker
// scratch (overlap or simulation workspaces) to it.
func (pl pool) runSlot(n int, f func(slot, i int)) {
	if n <= 0 {
		return
	}
	w := pl.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i >= int64(n) {
					return
				}
				f(g, int(i))
			}
		}(g)
	}
	wg.Wait()
}

// simulateOwned materialises the states for the owned global indices of X
// through the cache-aware per-row kernel path: pool workers claim one row at
// a time and simulate it through their slot's SimWorkspace. Results land in
// dst (parallel to owned) with per-process simulation/hit counts recorded
// into st. costs (parallel to owned; nil to skip) receives each row's own
// measured wall-clock — always positive, the per-row ground truth that
// calibrates EstimateRowCost. sp (nil to skip) receives one child span per
// row carrying the row index, shard label, cache outcome and resulting χ.
// Returns the first error by owned position; label names the shard in
// errors.
func simulateOwned(q *kernel.Quantum, X [][]float64, owned []int, dst []*mps.MPS, pl pool, st *ProcStats, label string, costs []time.Duration, sp *obs.Span) error {
	hits := make([]bool, len(owned))
	errs := make([]error, len(owned))
	pl.runSlot(len(owned), func(slot, a int) {
		rowSp := sp.Child("row")
		rowSp.SetAttr("row", owned[a])
		if label != "" {
			rowSp.SetAttr("shard", label)
		}
		t0 := time.Now()
		s, hit, err := q.StateCachedSpan(X[owned[a]], pl.simWorkspace(slot), rowSp)
		if costs != nil {
			costs[a] = max(time.Since(t0), time.Nanosecond)
		}
		if err != nil {
			rowSp.SetAttr("error", err.Error())
			rowSp.End()
			errs[a] = simErrf(st.Rank, label, owned[a], err)
			return
		}
		rowSp.SetAttr("hit", hit)
		rowSp.SetAttr("chi", s.MaxBond())
		rowSp.End()
		dst[a], hits[a] = s, hit
	})
	tallyHits(st, hits)
	return firstError(errs)
}

// tallyHits folds a per-state hit/miss bitmap into the process counters:
// hits came from the shared cache, misses were simulated locally.
func tallyHits(st *ProcStats, hits []bool) {
	for _, h := range hits {
		if h {
			st.CacheHits++
		} else {
			st.StatesSimulated++
		}
	}
}
