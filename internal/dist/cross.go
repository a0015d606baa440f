package dist

import (
	"sync"
	"time"

	"repro/internal/kernel"
	"repro/internal/mps"
	"repro/internal/obs"
)

// runCrossLocal computes the rectangular test×train kernel against training
// states that are already resident on every process (a model's retained
// handles): each process simulates only its test shard and fills its rows
// against the full training set directly — no barrier, no ring exchange, no
// communication on any transport. Test shards are cost-balanced (balance.go)
// so a skewed inference batch does not serialise behind one process.
// rowCosts (nil to skip) receives each owned test row's measured
// materialisation wall-clock at its test-row index.
func runCrossLocal(q *kernel.Quantum, testX [][]float64, trainStates []*mps.MPS, gram [][]float64, stats []ProcStats, rowCosts []time.Duration, parent *obs.Span) error {
	k := len(stats)
	assign := costBalancedIndices(q.Ansatz, testX, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for p := 0; p < k; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sp := rankSpan(parent, p)
			errs[p] = crossProcLocal(q, testX, trainStates, gram, &stats[p], k, assign[p], rowCosts, sp)
			sp.End()
		}(p)
	}
	wg.Wait()
	return firstError(errs)
}

func crossProcLocal(q *kernel.Quantum, testX [][]float64, trainStates []*mps.MPS, gram [][]float64, st *ProcStats, k int, ownedTest []int, rowCosts []time.Duration, sp *obs.Span) error {
	if len(ownedTest) == 0 {
		return nil
	}
	pl := procPool(q, k)
	sp.SetAttr("test_rows", len(ownedTest))

	testStates := make([]*mps.MPS, len(ownedTest))
	costs := make([]time.Duration, len(ownedTest))
	var simErr error
	simSp := sp.Child("simulate")
	st.SimTime = timed(func() {
		simErr = simulateOwned(q, testX, ownedTest, testStates, pl, st, "test", costs, simSp)
	})
	simSp.End()
	if simErr != nil {
		return simErr
	}
	if rowCosts != nil {
		for a, i := range ownedTest {
			rowCosts[i] = costs[a]
		}
	}

	counts := make([]int, len(ownedTest))
	innerSp := sp.Child("inner_products")
	st.InnerTime = timed(func() {
		pl.runWS(len(ownedTest), func(ws *mps.Workspace, a int) {
			i := ownedTest[a]
			row := gram[i]
			for j, tr := range trainStates {
				row[j] = ws.Overlap(testStates[a], tr)
				counts[a]++
			}
		})
	})
	innerSp.End()
	for _, c := range counts {
		st.InnerProducts += c
	}
	return nil
}
