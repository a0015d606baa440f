package dist

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernel"
	"repro/internal/mps"
	"repro/internal/obs"
)

// runCrossRoundRobin computes the rectangular test×train kernel: test rows
// and train states are both sharded round-robin; each process materialises
// its two shards (simulating on cache misses — after a ComputeGram on the
// same rows the whole train shard is a cache hit), the train shards are
// exchanged around the ring over the transport, and each process fills the
// complete Gram rows of its test shard.
func runCrossRoundRobin(q *kernel.Quantum, testX, trainX [][]float64, gram [][]float64, stats []ProcStats, opts Options) error {
	k := len(stats)
	net, err := opts.Transport.Network(k)
	if err != nil {
		return err
	}
	defer net.Close()
	var simBarrier sync.WaitGroup
	simBarrier.Add(k)
	var failed atomic.Bool
	errs := make([]error, k)
	var wg sync.WaitGroup
	for p := 0; p < k; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sp := rankSpan(opts.Span, p)
			errs[p] = crossProcRR(q, testX, trainX, gram, &stats[p], net.Endpoint(p), k, &simBarrier, &failed, opts, sp)
			sp.End()
		}(p)
	}
	wg.Wait()
	return firstError(errs)
}

func crossProcRR(q *kernel.Quantum, testX, trainX [][]float64, gram [][]float64, st *ProcStats, ep Endpoint, k int, simBarrier *sync.WaitGroup, failed *atomic.Bool, opts Options, sp *obs.Span) error {
	p := st.Rank
	ownedTest := ownedIndices(len(testX), k, p)
	ownedTrain := ownedIndices(len(trainX), k, p)
	pl := procPool(q, k)
	sp.SetAttr("test_rows", len(ownedTest))
	sp.SetAttr("train_rows", len(ownedTrain))

	// Phase 1: materialise both local shards (test rows, then train
	// columns) behind the same barrier discipline as the training path.
	testStates := make([]*mps.MPS, len(ownedTest))
	trainStates := make([]*mps.MPS, len(ownedTrain))
	var simErr error
	simSp := sp.Child("simulate")
	st.SimTime = timed(func() {
		simErr = simulateOwned(q, testX, ownedTest, testStates, pl, st, "test", nil, simSp)
		if simErr == nil {
			simErr = simulateOwned(q, trainX, ownedTrain, trainStates, pl, st, "train", nil, simSp)
		}
	})
	simSp.End()
	if simErr != nil {
		failed.Store(true)
	}
	simBarrier.Done()
	simBarrier.Wait()
	if simErr != nil {
		return simErr
	}
	if failed.Load() {
		return nil
	}

	// Phase 2: exchange the train shards, retrying transient failures. As in
	// the training path, a marshal failure still completes the sends with an
	// empty shard so no peer blocks waiting on it, and a rank whose injected
	// crash fires here abandons before computing or publishing any rows —
	// its test rows are taken over by the designated survivor below.
	var own Shard
	var marshalErr error
	var crashed bool
	sendSp := sp.Child("exchange_send")
	st.CommTime += timed(func() {
		own, marshalErr = marshalShard(p, ownedTrain, trainStates)
		if marshalErr != nil {
			own = Shard{From: p}
		}
		crashed = sendRing(p, own, ep, k, opts, st, sendSp)
	})
	sendSp.End()
	if marshalErr != nil {
		return marshalErr
	}
	if crashed {
		st.Crashed = true
		return nil
	}

	// trainAll accumulates every rank's train states at their global
	// indices — local, received, and recovered — because a dead rank's test
	// rows can only be taken over with the complete training side in hand.
	trainAll := make([]*mps.MPS, len(trainX))
	for b, j := range ownedTrain {
		trainAll[j] = trainStates[b]
	}

	// Phase 3a: local test rows × local train columns.
	counts := make([]int, len(ownedTest))
	st.InnerTime += timed(func() {
		pl.runWS(len(ownedTest), func(ws *mps.Workspace, a int) {
			i := ownedTest[a]
			for b, j := range ownedTrain {
				gram[i][j] = ws.Overlap(testStates[a], trainStates[b])
				counts[a]++
			}
		})
	})

	// Phase 3b: local test rows × each arriving remote train shard, under
	// the deadline.
	onShard := func(in Shard) error {
		var remote []*mps.MPS
		var uerr error
		st.CommTime += timed(func() {
			remote, uerr = unmarshalShard(in, len(trainX), q.Config)
		})
		if uerr != nil {
			return uerr
		}
		for b, j := range in.Indices {
			trainAll[j] = remote[b]
		}
		st.InnerTime += timed(func() {
			pl.runWS(len(ownedTest), func(ws *mps.Workspace, a int) {
				i := ownedTest[a]
				for b, j := range in.Indices {
					gram[i][j] = ws.Overlap(testStates[a], remote[b])
					counts[a]++
				}
			})
		})
		return nil
	}
	recvSp := sp.Child("exchange_recv")
	dead, missing, err := exchangeRecv(ep, k, p, opts, st, recvSp, onShard)
	recvSp.End()
	if err != nil {
		return err
	}
	for _, c := range counts {
		st.InnerProducts += c
	}
	if len(dead)+len(missing) > 0 {
		recSp := sp.Child("recover")
		recSp.SetAttr("dead", len(dead))
		recSp.SetAttr("missing", len(missing))
		err := recoverCross(q, testX, trainX, gram, st, pl, k, ownedTest, testStates, trainAll, dead, missing, recSp)
		recSp.End()
		return err
	}
	return nil
}

// recoverCross fills in what a lost train shard (or a whole dead rank) owed
// this process in the rectangular kernel. For every lost shard — missing or
// dead — the train rows are re-materialised locally and this rank's own test
// rows are completed against them. A dead rank additionally computed nothing
// itself, so the lowest-ranked survivor (consistent across survivors — the
// dead set comes from broadcast envelopes) takes over its test shard: it
// re-simulates those test rows and fills their complete rows against the
// full training side. Orientation is the serial path's (test state first),
// so recovery stays bit-identical.
func recoverCross(q *kernel.Quantum, testX, trainX [][]float64, gram [][]float64, st *ProcStats, pl pool, k int, ownedTest []int, testStates []*mps.MPS, trainAll []*mps.MPS, dead, missing []int, sp *obs.Span) error {
	deadSet := make(map[int]bool, len(dead))
	for _, c := range dead {
		deadSet[c] = true
	}
	lost := make([]int, 0, len(dead)+len(missing))
	lost = append(append(lost, dead...), missing...)
	sort.Ints(lost)

	counts := make([]int, len(ownedTest))
	for _, c := range lost {
		trainIdx := ownedIndices(len(trainX), k, c)
		sts := make([]*mps.MPS, len(trainIdx))
		var simErr error
		st.SimTime += timed(func() {
			simErr = simulateOwned(q, trainX, trainIdx, sts, pl, st, "recovered train", nil, sp)
		})
		if simErr != nil {
			return simErr
		}
		st.RecoveredRows += len(trainIdx)
		sp.Event("recovered_rows", obs.KV("rank", c), obs.KV("rows", len(trainIdx)), obs.KV("shard", "train"))
		for b, j := range trainIdx {
			trainAll[j] = sts[b]
		}
		st.InnerTime += timed(func() {
			pl.runWS(len(ownedTest), func(ws *mps.Workspace, a int) {
				i := ownedTest[a]
				for b, j := range trainIdx {
					gram[i][j] = ws.Overlap(testStates[a], sts[b])
					counts[a]++
				}
			})
		})
	}
	for _, c := range counts {
		st.InnerProducts += c
	}

	if len(dead) == 0 {
		return nil
	}
	survivor := 0
	for deadSet[survivor] {
		survivor++
	}
	if st.Rank != survivor {
		return nil
	}
	deadSorted := append([]int(nil), dead...)
	sort.Ints(deadSorted)
	for _, c := range deadSorted {
		testIdx := ownedIndices(len(testX), k, c)
		sts := make([]*mps.MPS, len(testIdx))
		var simErr error
		st.SimTime += timed(func() {
			simErr = simulateOwned(q, testX, testIdx, sts, pl, st, "recovered test", nil, sp)
		})
		if simErr != nil {
			return simErr
		}
		st.RecoveredRows += len(testIdx)
		sp.Event("recovered_rows", obs.KV("rank", c), obs.KV("rows", len(testIdx)), obs.KV("shard", "test"))
		cnt := make([]int, len(testIdx))
		st.InnerTime += timed(func() {
			pl.runWS(len(testIdx), func(ws *mps.Workspace, a int) {
				i := testIdx[a]
				for j, tr := range trainAll {
					gram[i][j] = ws.Overlap(sts[a], tr)
					cnt[a]++
				}
			})
		})
		for _, c := range cnt {
			st.InnerProducts += c
		}
	}
	return nil
}

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
