package dist

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernel"
	"repro/internal/mps"
	"repro/internal/obs"
)

// rankSpan opens one rank's span under the computation's parent, on its own
// display track (rank+1; track 0 stays with the coordinating caller).
func rankSpan(parent *obs.Span, p int) *obs.Span {
	sp := parent.Child("rank " + strconv.Itoa(p))
	sp.SetTrack(p + 1)
	return sp
}

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
	errs := make([]error, k)
	var wg sync.WaitGroup
	for p := 0; p < k; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sp := rankSpan(opts.Span, p)
			errs[p] = gramProcRR(q, X, gram, retain, &stats[p], net.Endpoint(p), k, &simBarrier, &failed, assign, opts, rowCosts, sp)
			sp.End()
		}(p)
	}
	wg.Wait()
	return firstError(errs)
}

func gramProcRR(q *kernel.Quantum, X [][]float64, gram [][]float64, retain []*mps.MPS, st *ProcStats, ep Endpoint, k int, simBarrier *sync.WaitGroup, failed *atomic.Bool, assign [][]int, opts Options, rowCosts []time.Duration, sp *obs.Span) error {
	p := st.Rank
	owned := assign[p]
	pl := procPool(q, k)
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
		simErr = simulateOwned(q, X, owned, states, pl, st, "", costs, simSp)
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
	// other process around the ring, retrying transient failures under the
	// Options budget. On a marshal failure the sends still complete (with an
	// empty shard) so no peer blocks on a receive that would never arrive;
	// the error is reported after. A rank whose own injected crash fires
	// here abandons the exchange entirely — crucially *before* publishing
	// retain/rowCosts/gram cells, so the survivors' recovery writes (which
	// take over exactly this rank's share of the schedule) race with
	// nothing.
	var own Shard
	var marshalErr error
	var crashed bool
	sendSp := sp.Child("exchange_send")
	st.CommTime += timed(func() {
		own, marshalErr = marshalShard(p, owned, states)
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
		pl.runWS(len(owned), func(ws *mps.Workspace, a int) {
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
	// computed exactly once cluster-wide — the recovery path below preserves
	// that exactly-once discipline for whatever never arrived.
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
			pl.runWS(len(owned), func(ws *mps.Workspace, a int) {
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
	dead, missing, err := exchangeRecv(ep, k, p, opts, st, recvSp, onShard)
	recvSp.End()
	if err != nil {
		return err
	}
	for _, c := range counts {
		st.InnerProducts += c
	}

	// Phase 4: recover whatever never arrived.
	if len(dead)+len(missing) > 0 {
		recSp := sp.Child("recover")
		recSp.SetAttr("dead", len(dead))
		recSp.SetAttr("missing", len(missing))
		err := recoverGram(q, X, gram, retain, st, pl, assign, owned, states, dead, missing, rowCosts, recSp)
		recSp.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// recoverGram recomputes the Gram contribution of peers whose shard never
// arrived, re-materialising their rows locally through the no-messaging path
// (cache-aware, so after the sim barrier the states are usually resident and
// bit-identical handles). The write discipline distinguishes two cases:
//
//   - A *missing* peer (deadline expiry) may well be alive and computing —
//     only its shard was lost. This rank fills only the cells its own ring
//     schedule owed against that shard (i local, j remote, j > i); the
//     peer's side is still written by the peer, so no cell is written twice.
//   - A *dead* peer (failure envelope — injected crash or broken connection)
//     published nothing, so its entire share of the schedule must be taken
//     over: this rank additionally fills the mirror cells it shares with the
//     dead rank (j < i), and the lowest-ranked survivor — every survivor
//     derives the same dead set from the broadcast envelopes, so the choice
//     is consistent without coordination — fills the dead shards' internal
//     triangles, the dead×dead cross cells, and the dead rows' retained
//     states and costs.
//
// All recovered cells keep the serial path's orientation (the lower-index
// state is the first Overlap argument), so recovery is bit-identical.
//
// Caveat: a broken TCP connection yields a failure envelope even if the peer
// process is in fact alive; full takeover then writes cells the peer may
// also write. The values are bit-identical either way, and the in-process
// transports never hit this (their envelopes only come from injected
// crashes, whose ranks provably publish nothing).
func recoverGram(q *kernel.Quantum, X [][]float64, gram [][]float64, retain []*mps.MPS, st *ProcStats, pl pool, assign [][]int, owned []int, states []*mps.MPS, dead, missing []int, rowCosts []time.Duration, sp *obs.Span) error {
	deadSet := make(map[int]bool, len(dead))
	for _, c := range dead {
		deadSet[c] = true
	}
	lost := make([]int, 0, len(dead)+len(missing))
	lost = append(append(lost, dead...), missing...)
	sort.Ints(lost)

	recovered := make(map[int][]*mps.MPS, len(lost))
	recCosts := make(map[int][]time.Duration, len(lost))
	for _, c := range lost {
		idx := assign[c]
		sts := make([]*mps.MPS, len(idx))
		costs := make([]time.Duration, len(idx))
		var simErr error
		st.SimTime += timed(func() {
			simErr = simulateOwned(q, X, idx, sts, pl, st, "recovered", costs, sp)
		})
		if simErr != nil {
			return simErr
		}
		st.RecoveredRows += len(idx)
		sp.Event("recovered_rows", obs.KV("rank", c), obs.KV("rows", len(idx)), obs.KV("dead", deadSet[c]))
		recovered[c] = sts
		recCosts[c] = costs
	}

	// This rank's own schedule against each lost shard; for dead peers also
	// the mirror cells the dead rank would have computed.
	counts := make([]int, len(owned))
	st.InnerTime += timed(func() {
		for _, c := range lost {
			idx, sts, isDead := assign[c], recovered[c], deadSet[c]
			pl.runWS(len(owned), func(ws *mps.Workspace, a int) {
				i := owned[a]
				for b, j := range idx {
					switch {
					case j > i:
						gram[i][j] = ws.Overlap(states[a], sts[b])
						counts[a]++
					case isDead && j < i:
						gram[j][i] = ws.Overlap(sts[b], states[a])
						counts[a]++
					}
				}
			})
		}
	})
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
	// The designated survivor computes the cells no live rank's schedule
	// covers: each dead shard's internal upper triangle (diagonal included)
	// and the cross cells between pairs of dead shards.
	for x, c1 := range deadSorted {
		for _, c2 := range deadSorted[x:] {
			idx1, sts1 := assign[c1], recovered[c1]
			idx2, sts2 := assign[c2], recovered[c2]
			same := c1 == c2
			cnt := make([]int, len(idx1))
			st.InnerTime += timed(func() {
				pl.runWS(len(idx1), func(ws *mps.Workspace, a int) {
					for b := range idx2 {
						if same && b < a {
							continue
						}
						i, j := idx1[a], idx2[b]
						lo, hi := sts1[a], sts2[b]
						if j < i {
							i, j = j, i
							lo, hi = hi, lo
						}
						gram[i][j] = ws.Overlap(lo, hi)
						cnt[a]++
					}
				})
			})
			for _, c := range cnt {
				st.InnerProducts += c
			}
		}
	}
	// Publish the dead rows' retained handles and measured costs, which the
	// dead rank never did.
	for _, c := range deadSorted {
		for b, j := range assign[c] {
			retain[j] = recovered[c][b]
			if rowCosts != nil {
				rowCosts[j] = recCosts[c][b]
			}
		}
	}
	return nil
}
