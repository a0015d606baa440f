package dist

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/mps"
	"repro/internal/obs"
)

// Shard wire framing: a shard message carries its origin rank and state
// count, then one (global index, payload length, payload) record per state.
// Every transport accounts (and TCPTransport literally writes) this layout.
const (
	shardHeaderBytes = 16
	stateHeaderBytes = 16
)

// Shard is one message on the wire: the serialised MPS states of one
// process's block, tagged with their global indices and origin rank. Because
// shards are tagged, the receive order within an exchange phase is
// irrelevant — exactly what makes the ring schedule deadlock-free on
// buffered transports.
type Shard struct {
	// From is the sending rank.
	From int
	// Indices are the global row indices of the carried states; parallel to
	// Blobs.
	Indices []int
	// Blobs are the mps.MarshalBinary payloads.
	Blobs [][]byte
}

// WireBytes is the accounted size of the shard on the wire: the frame header
// plus one record header and payload per state.
func (s Shard) WireBytes() int64 {
	b := int64(shardHeaderBytes)
	for _, blob := range s.Blobs {
		b += stateHeaderBytes + int64(len(blob))
	}
	return b
}

// marshalShard serialises a block of states for transfer. indices and states
// run in parallel.
func marshalShard(from int, indices []int, states []*mps.MPS) (Shard, error) {
	s := Shard{From: from, Indices: indices, Blobs: make([][]byte, len(states))}
	for a, st := range states {
		blob, err := st.MarshalBinary()
		if err != nil {
			return Shard{}, fmt.Errorf("dist: marshal state %d: %w", indices[a], err)
		}
		s.Blobs[a] = blob
	}
	return s, nil
}

// ShardIndexError reports a received shard that carries a row index outside
// the kernel being computed: a corrupt or hostile frame, refused before any
// of its states is decoded or any Gram cell written.
type ShardIndexError struct {
	// From is the origin rank the shard claims.
	From int
	// Index is the offending row index.
	Index int
	// Rows is the row count valid indices must stay below.
	Rows int
}

func (e *ShardIndexError) Error() string {
	return fmt.Sprintf("dist: shard from proc %d carries row %d, outside [0, %d)", e.From, e.Index, e.Rows)
}

// unmarshalShard reconstructs the states of a received shard, attaching the
// receiver's simulator configuration. Every index must lie in [0, rows),
// the rows the receiver computes over; anything else is a *ShardIndexError.
func unmarshalShard(s Shard, rows int, cfg mps.Config) ([]*mps.MPS, error) {
	if len(s.Indices) != len(s.Blobs) {
		return nil, fmt.Errorf("dist: shard from proc %d carries %d indices for %d states", s.From, len(s.Indices), len(s.Blobs))
	}
	for _, j := range s.Indices {
		if j < 0 || j >= rows {
			return nil, &ShardIndexError{From: s.From, Index: j, Rows: rows}
		}
	}
	states := make([]*mps.MPS, len(s.Blobs))
	for a, blob := range s.Blobs {
		st, err := mps.UnmarshalBinary(blob, cfg)
		if err != nil {
			return nil, fmt.Errorf("dist: unmarshal state %d from proc %d: %w", s.Indices[a], s.From, err)
		}
		states[a] = st
	}
	return states, nil
}

// retrySend delivers one shard under the Options retry budget: a transient
// send failure is retried up to o.MaxRetries times with exponential backoff
// + deterministic jitter. ErrRankCrashed is never retried — it is the
// sender's own death, not a wire hiccup.
func retrySend(ep Endpoint, to int, s Shard, o Options, st *ProcStats, sp *obs.Span) (int64, error) {
	for attempt := 0; ; attempt++ {
		b, err := ep.Send(to, s)
		if err == nil {
			return b, nil
		}
		if errors.Is(err, ErrRankCrashed) || attempt >= o.MaxRetries {
			return 0, err
		}
		st.Retries++
		sp.Event("retry", obs.KV("to", to), obs.KV("attempt", attempt+1))
		time.Sleep(retryBackoff(o.Backoff, attempt+1, uint64(to)))
	}
}

// sendRing performs rank p's send side of the exchange: one copy of its
// shard to every other rank, walking the ring (p+1, p+2, …) so the per-round
// destinations rotate as in the paper's round-robin schedule. Transports
// buffer every message a rank can receive, so sends do not block on slow
// receivers. A send that still fails after the retry budget is counted
// (SendFailures) but does not abort the ring: peers reachable over healthy
// links must still get their shard — stopping after one broken link would
// starve every remaining receiver, not just the unreachable one, whose own
// deadline-driven recovery covers the undelivered shard. The exception is
// ErrRankCrashed — the sender's own injected death — which aborts
// immediately; the caller abandons the exchange without publishing results.
func sendRing(p int, s Shard, ep Endpoint, k int, o Options, st *ProcStats, sp *obs.Span) (crashed bool) {
	for r := 1; r < k; r++ {
		b, err := retrySend(ep, (p+r)%k, s, o, st, sp)
		if err != nil {
			if errors.Is(err, ErrRankCrashed) {
				sp.Event("crashed")
				return true
			}
			st.SendFailures++
			sp.Event("send_failure", obs.KV("to", (p+r)%k))
			continue
		}
		st.MessagesSent++
		st.BytesSent += b
	}
	return false
}

// exchangeRecv drains rank self's side of one exchange round: it expects one
// shard from each of the other k−1 ranks, calling onShard for every distinct
// delivery, and classifies everything that can go wrong so the caller can
// recover:
//
//   - a *RankFailedError marks its rank dead (the wire proved the peer is
//     gone, so the survivors must also take over its side of the schedule);
//   - an expired deadline (ErrRecvTimeout) stops the wait — every rank still
//     unaccounted for is returned as missing (its shard was lost, but the
//     peer may be alive and computing, so only cells this rank owns may be
//     recovered for it);
//   - duplicate deliveries, echoes of self, and late shards from ranks
//     already marked dead are discarded (DupsDropped);
//   - ErrRankCrashed (self's own injected death) and onShard errors abort.
//
// The wait time lands in CommTime; onShard does its own phase accounting.
func exchangeRecv(ep Endpoint, k, self int, o Options, st *ProcStats, sp *obs.Span, onShard func(Shard) error) (dead, missing []int, err error) {
	seen := make([]bool, k)
	seen[self] = true
	deadSet := make([]bool, k)
	pending := k - 1
	for pending > 0 {
		var in Shard
		var recvErr error
		st.CommTime += timed(func() {
			in, recvErr = ep.Recv(o.Deadline)
		})
		switch {
		case recvErr == nil:
			from := in.From
			if from < 0 || from >= k {
				return nil, nil, fmt.Errorf("dist: rank %d received shard from invalid rank %d", self, from)
			}
			if seen[from] || deadSet[from] {
				st.DupsDropped++
				sp.Event("dup_dropped", obs.KV("from", from))
				continue
			}
			seen[from] = true
			pending--
			sp.Event("shard_recv", obs.KV("from", from), obs.KV("bytes", in.WireBytes()))
			if onErr := onShard(in); onErr != nil {
				return nil, nil, onErr
			}
		case errors.Is(recvErr, ErrRecvTimeout):
			st.Timeouts++
			for r := 0; r < k; r++ {
				if !seen[r] && !deadSet[r] {
					missing = append(missing, r)
				}
			}
			sp.Event("timeout", obs.KV("missing", len(missing)))
			return dead, missing, nil
		case errors.Is(recvErr, ErrRankCrashed):
			sp.Event("crashed")
			return nil, nil, recvErr
		default:
			var rf *RankFailedError
			if errors.As(recvErr, &rf) {
				if rf.Rank >= 0 && rf.Rank < k && !seen[rf.Rank] && !deadSet[rf.Rank] {
					deadSet[rf.Rank] = true
					dead = append(dead, rf.Rank)
					pending--
					sp.Event("rank_dead", obs.KV("rank", rf.Rank))
				}
				continue
			}
			return nil, nil, recvErr
		}
	}
	return dead, missing, nil
}

// timed runs f and returns its elapsed wall-clock.
func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}
