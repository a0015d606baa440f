package dist

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernel"
	"repro/internal/mps"
	"repro/internal/obs"
)

// runGramRoundRobin executes the round-robin strategy: one goroutine per
// process, a simulation barrier, then the ring exchange of serialised shards
// over the transport interleaved with the overlap computation. assign gives
// each rank's owned row indices (ascending); ComputeGram passes the
// cost-balanced assignment, the balance tests also drive the naive one.
// rowCosts (nil to skip) receives each owned row's measured materialisation
// wall-clock at its global index.
func runGramRoundRobin(q *kernel.Quantum, X [][]float64, gram [][]float64, retain []*mps.MPS, stats []ProcStats, assign [][]int, opts Options, rowCosts []time.Duration) error {
	k := len(stats)
	net, err := opts.Transport.Network(k)
	if err != nil {
		return err
	}
	defer net.Close()
	var simBarrier sync.WaitGroup
	simBarrier.Add(k)
	var failed atomic.Bool
	return eachRank(k, opts.Span, func(p int, sp *obs.Span) error {
		return gramProcRR(q, X, gram, retain, &stats[p], net.Endpoint(p), k, &simBarrier, &failed, assign, opts, rowCosts, sp)
	})
}

func gramProcRR(q *kernel.Quantum, X [][]float64, gram [][]float64, retain []*mps.MPS, st *ProcStats, ep Endpoint, k int, simBarrier *sync.WaitGroup, failed *atomic.Bool, assign [][]int, opts Options, rowCosts []time.Duration, sp *obs.Span) error {
	p := st.Rank
	owned := assign[p]
	workers := rankWorkers(q, k)
	sp.SetAttr("rows", len(owned))

	// Phase 1: materialise the local shard (simulating on cache misses),
	// then synchronise — the exchange must not start while any process can
	// still fail simulation and leave its peers waiting on a shard that
	// never arrives.
	states := make([]*mps.MPS, len(owned))
	costs := make([]time.Duration, len(owned))
	var simErr error
	simSp := sp.Child("simulate")
	st.SimTime = timed(func() {
		simErr = simulateOwned(q, X, owned, states, workers, st, costs, simSp)
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
		return nil // a peer failed simulation; it reports the error
	}

	// Phase 2: serialise the local shard once and send a copy to every
	// other process around the ring. On a marshal failure the sends still
	// complete (with an empty shard) so no peer waits out its deadline on a
	// shard that would never arrive; the error is reported after.
	var own Shard
	var marshalErr, sendErr error
	sendSp := sp.Child("exchange_send")
	st.CommTime += timed(func() {
		own, marshalErr = marshalShard(p, owned, states)
		if marshalErr != nil {
			own = Shard{From: p}
		}
		sendErr = sendRing(p, own, ep, k, st)
	})
	sendSp.End()
	if marshalErr != nil {
		return marshalErr
	}
	if sendErr != nil {
		return sendErr
	}
	for a, i := range owned {
		retain[i] = states[a]
		if rowCosts != nil {
			rowCosts[i] = costs[a]
		}
	}

	// Phase 3a: overlaps within the local shard — the upper triangle
	// including the diagonal, oriented (i first) exactly as the serial path.
	counts := make([]int, len(owned))
	triSp := sp.Child("local_triangle")
	st.InnerTime += timed(func() {
		kernel.EachRow(len(owned), workers, func(a int, _ *mps.SimWorkspace, ws *mps.Workspace) {
			for b := a; b < len(owned); b++ {
				gram[owned[a]][owned[b]] = ws.Overlap(states[a], states[b])
				counts[a]++
			}
		})
	})
	triSp.End()

	// Phase 3b: receive the other k−1 shards under the deadline; deserialise
	// each (comm) and compute the cross pairs this rank owns: (i, j) with i
	// local, j remote, i < j. The mirror-image j < i pairs are computed by
	// the remote rank when this rank's shard reaches it, so every entry is
	// computed exactly once cluster-wide. A shard that never arrives fails
	// the computation (exchangeRecv).
	onShard := func(in Shard) error {
		var remote []*mps.MPS
		var uerr error
		st.CommTime += timed(func() {
			remote, uerr = unmarshalShard(in, len(X), q.Config)
		})
		if uerr != nil {
			return uerr
		}
		st.InnerTime += timed(func() {
			kernel.EachRow(len(owned), workers, func(a int, _ *mps.SimWorkspace, ws *mps.Workspace) {
				i := owned[a]
				for b, j := range in.Indices {
					if j > i {
						gram[i][j] = ws.Overlap(states[a], remote[b])
						counts[a]++
					}
				}
			})
		})
		return nil
	}
	recvSp := sp.Child("exchange_recv")
	err := exchangeRecv(ep, k, p, opts.Deadline, st, recvSp, onShard)
	recvSp.End()
	if err != nil {
		return err
	}
	for _, c := range counts {
		st.InnerProducts += c
	}
	return nil
}
