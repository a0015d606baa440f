package dist

import (
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

// sendRing performs rank p's send side of the exchange: one copy of its
// shard to every other rank, walking the ring (p+1, p+2, …) so the per-round
// destinations rotate as in the paper's round-robin schedule. Transports
// buffer every message a rank can receive, so sends do not block on slow
// receivers. A failed send is not retried, and it does not stop the ring:
// peers reachable over healthy links still get their shard instead of
// waiting out their deadline. The first failure is returned once the ring
// completes, as a *RankFailedError naming the unreachable peer.
func sendRing(p int, s Shard, ep Endpoint, k int, st *ProcStats) error {
	var first error
	for r := 1; r < k; r++ {
		to := (p + r) % k
		b, err := ep.Send(to, s)
		if err != nil {
			if first == nil {
				first = &RankFailedError{Rank: to, Err: err}
			}
			continue
		}
		st.MessagesSent++
		st.BytesSent += b
	}
	return first
}

// exchangeRecv drains rank self's side of the exchange: exactly one shard
// from each of the other k−1 ranks, each handed to onShard. Any Recv error —
// ErrRecvTimeout, or the *RankFailedError a TCP reader delivers for a broken
// connection — fails the rank with an error naming it and the ranks whose
// shards are still missing. A shard from an invalid rank, or a second shard
// from the same rank, is refused. The wait time lands in CommTime; onShard
// does its own phase accounting.
func exchangeRecv(ep Endpoint, k, self int, deadline time.Duration, st *ProcStats, sp *obs.Span, onShard func(Shard) error) error {
	seen := make([]bool, k)
	seen[self] = true
	for pending := k - 1; pending > 0; pending-- {
		var in Shard
		var err error
		st.CommTime += timed(func() {
			in, err = ep.Recv(deadline)
		})
		if err != nil {
			var missing []int
			for r, ok := range seen {
				if !ok {
					missing = append(missing, r)
				}
			}
			return fmt.Errorf("dist: rank %d: shards from ranks %v never arrived: %w", self, missing, err)
		}
		from := in.From
		if from < 0 || from >= k {
			return fmt.Errorf("dist: rank %d received shard from invalid rank %d", self, from)
		}
		if seen[from] {
			return fmt.Errorf("dist: rank %d received a second shard from rank %d", self, from)
		}
		seen[from] = true
		sp.Event("shard_recv", obs.KV("from", from), obs.KV("bytes", in.WireBytes()))
		if err := onShard(in); err != nil {
			return err
		}
	}
	return nil
}

// timed runs f and returns its elapsed wall-clock.
func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}
