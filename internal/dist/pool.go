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
	// ws holds one overlap workspace per worker slot, created lazily and
	// reused across every runWS call of the process's lifetime (a
	// round-robin Gram makes one call per ring step; re-warming buffers
	// each step would forfeit the zero-realloc property).
	ws []*mps.Workspace
	// sim holds one gate-engine workspace per worker slot, threaded through
	// the shard materialisation loops so cache misses simulate through
	// warmed zero-realloc buffers.
	sim []*mps.SimWorkspace
}

// procPool sizes a process's worker pool: the k simulated processes share
// the physical machine, so each gets an equal slice of the kernel's
// concurrency bound (Quantum.Workers, defaulting to GOMAXPROCS), at least
// one worker.
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

// workspace returns worker slot g's reusable workspace. runWS calls never
// overlap in time for one pool and each slot is touched by one goroutine
// per call, so lazy creation is race-free.
func (pl pool) workspace(g int) *mps.Workspace {
	if pl.ws == nil {
		return mps.NewWorkspace()
	}
	if pl.ws[g] == nil {
		pl.ws[g] = mps.NewWorkspace()
	}
	return pl.ws[g]
}

// simWorkspace returns worker slot g's reusable gate-engine workspace,
// under the same single-goroutine-per-slot discipline as workspace.
func (pl pool) simWorkspace(g int) *mps.SimWorkspace {
	if pl.sim == nil {
		return mps.NewSimWorkspace()
	}
	if pl.sim[g] == nil {
		pl.sim[g] = mps.NewSimWorkspace()
	}
	return pl.sim[g]
}

// run invokes f(i) for every i in [0,n), spreading the calls over the pool's
// workers. It returns once all calls have completed.
func (pl pool) run(n int, f func(i int)) {
	pl.runSlot(n, func(_, i int) { f(i) })
}

// runWS is run with a private overlap workspace per worker goroutine, so
// overlap batches reuse transfer-matrix buffers instead of allocating per
// pair. Workspaces are created lazily-cheap (buffers grow on first use), so
// run simply delegates here for non-overlap work.
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

// runErr is run for fallible tasks; it executes every task regardless of
// failures and returns the first error by task index.
func (pl pool) runErr(n int, f func(i int) error) error {
	errs := make([]error, n)
	pl.run(n, func(i int) {
		errs[i] = f(i)
	})
	return firstError(errs)
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
