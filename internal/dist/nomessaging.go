package dist

import (
	"sync"
	"time"

	"repro/internal/kernel"
	"repro/internal/mps"
	"repro/internal/obs"
)

// runGramNoMessaging executes the no-messaging strategy: Gram rows are
// sharded round-robin and every process independently materialises each
// state its rows touch. No synchronisation or messaging is needed — the
// processes never exchange anything, on any transport. Without a state cache
// the overlap ranges are simulated redundantly (the compute the strategy
// pays for its silence); with a shared cache the in-flight deduplication
// collapses the redundancy to one simulation per state cluster-wide.
// rowCosts (nil to skip) receives each owned row's measured materialisation
// wall-clock at its global index.
func runGramNoMessaging(q *kernel.Quantum, X [][]float64, gram [][]float64, retain []*mps.MPS, stats []ProcStats, rowCosts []time.Duration, parent *obs.Span) error {
	k := len(stats)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for p := 0; p < k; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sp := rankSpan(parent, p)
			errs[p] = gramProcNM(q, X, gram, retain, &stats[p], k, rowCosts, sp)
			sp.End()
		}(p)
	}
	wg.Wait()
	return firstError(errs)
}

func gramProcNM(q *kernel.Quantum, X [][]float64, gram [][]float64, retain []*mps.MPS, st *ProcStats, k int, rowCosts []time.Duration, sp *obs.Span) error {
	n := len(X)
	p := st.Rank
	owned := ownedIndices(n, k, p)
	if len(owned) == 0 {
		return nil
	}
	pl := procPool(q, k)
	defer pl.release()

	// Phase 1: materialise every state from the first owned row onward —
	// row i needs every column j ≥ i.
	lo := owned[0]
	needed := make([]int, 0, n-lo)
	for i := lo; i < n; i++ {
		needed = append(needed, i)
	}
	local := make([]*mps.MPS, len(needed))
	costs := make([]time.Duration, len(needed))
	var simErr error
	sp.SetAttr("rows", len(owned))
	simSp := sp.Child("simulate")
	st.SimTime = timed(func() {
		simErr = simulateOwned(q, X, needed, local, pl, st, "", costs, simSp)
	})
	simSp.End()
	if simErr != nil {
		return simErr
	}
	states := make([]*mps.MPS, n) // indexed globally; [0, lo) stays nil
	for a, i := range needed {
		states[i] = local[a]
	}
	// Only the owning rank reports a row: the redundant materialisations of
	// other ranks' rows would race on the shared slices (and say nothing
	// about the rows this rank is accountable for).
	isOwned := make(map[int]bool, len(owned))
	for _, i := range owned {
		isOwned[i] = true
	}
	for a, i := range needed {
		if !isOwned[i] {
			continue
		}
		retain[i] = states[i]
		if rowCosts != nil {
			rowCosts[i] = costs[a]
		}
	}

	// Phase 2: the upper triangle of the owned rows, diagonal included.
	counts := make([]int, len(owned))
	triSp := sp.Child("local_triangle")
	st.InnerTime = timed(func() {
		pl.runWS(len(owned), func(ws *mps.Workspace, a int) {
			i := owned[a]
			for j := i; j < n; j++ {
				gram[i][j] = ws.Overlap(states[i], states[j])
				counts[a]++
			}
		})
	})
	triSp.End()
	for _, c := range counts {
		st.InnerProducts += c
	}
	return nil
}
