package dist

import (
	"fmt"
	"sync"
	"time"
)

// SimTransport is the chan wire with a communication price: every message is
// charged latency + size/bandwidth + jitter, and its delivery is withheld
// until that modelled wall-clock has genuinely elapsed since the send. The
// paper's section II-D trade-off (round-robin messaging vs. redundant
// no-messaging) is only meaningful when communication costs something; this
// transport makes ProcStats.CommTime and the Fig. 8 communication bars
// reflect a parameterised wire instead of a free in-process channel, while
// the Gram matrix itself stays bit-identical to every other transport.
//
// The charge is paid where the paper accounts it — in the receiving rank's
// communication phase: a receiver that arrives early waits out the remaining
// wire time (and CommTime records the wait); a receiver that arrives after
// the message has "landed" pays nothing extra. Jitter is deterministic (a
// per-message hash seeded by Seed), so runs are reproducible.
type SimTransport struct {
	// Latency is the fixed one-way cost charged to every message.
	Latency time.Duration
	// MBps is the wire bandwidth in MiB/s applied to the message's framed
	// byte size; 0 means infinite bandwidth.
	MBps float64
	// Jitter is the maximum extra per-message delay; each message draws a
	// deterministic fraction of it from a hash of (Seed, sender, sequence).
	Jitter time.Duration
	// Seed varies the jitter draw between otherwise identical runs.
	Seed uint64
}

// Name returns "sim".
func (t *SimTransport) Name() string { return "sim" }

// MessageCost is the modelled wire time for one message of the given framed
// size, excluding jitter — the deterministic floor of the cost model.
func (t *SimTransport) MessageCost(bytes int64) time.Duration {
	cost := t.Latency
	if t.MBps > 0 {
		cost += time.Duration(float64(bytes) / (t.MBps * (1 << 20)) * float64(time.Second))
	}
	return cost
}

// jitterFor draws the deterministic per-message jitter: a splitmix64 hash of
// (Seed, sender rank, per-sender sequence number) scaled into [0, Jitter).
func (t *SimTransport) jitterFor(from, seq int) time.Duration {
	if t.Jitter <= 0 {
		return 0
	}
	x := splitmix64(t.Seed ^ uint64(from)<<32 ^ uint64(seq))
	frac := float64(x>>11) / float64(1<<53)
	return time.Duration(frac * float64(t.Jitter))
}

// splitmix64 is the avalanche hash behind every deterministic draw in this
// package: SimTransport's jitter and the TCP dial backoff's.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Network builds the cost-modelled wire for k ranks.
func (t *SimTransport) Network(k int) (Network, error) {
	if k < 1 {
		return nil, fmt.Errorf("dist: network needs ≥ 1 rank, got %d", k)
	}
	n := &simNetwork{t: t, inboxes: make([]chan simMsg, k)}
	for p := range n.inboxes {
		// Same headroom as the chan wire: a full exchange round must never
		// block a sender, even when the receiver failed and stopped draining.
		n.inboxes[p] = make(chan simMsg, 3*k)
	}
	return n, nil
}

// simMsg is a shard in flight: the payload plus the instant the modelled
// wire finishes delivering it.
type simMsg struct {
	s   Shard
	due time.Time
}

type simNetwork struct {
	t       *SimTransport
	inboxes []chan simMsg
	mu      sync.Mutex
	seq     []int // per-sender message sequence, for the jitter draw
}

func (n *simNetwork) Endpoint(rank int) Endpoint { return &simEndpoint{n: n, rank: rank} }

func (n *simNetwork) Close() error { return nil }

// nextSeq hands out the sender's next message sequence number. Endpoints are
// single-goroutine, but distinct ranks share the network, so the counter
// array is guarded.
func (n *simNetwork) nextSeq(from int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.seq == nil {
		n.seq = make([]int, len(n.inboxes))
	}
	s := n.seq[from]
	n.seq[from]++
	return s
}

type simEndpoint struct {
	n    *simNetwork
	rank int
}

func (e *simEndpoint) Send(to int, s Shard) (int64, error) {
	if to < 0 || to >= len(e.n.inboxes) || to == e.rank {
		return 0, fmt.Errorf("dist: rank %d cannot send to %d", e.rank, to)
	}
	bytes := s.WireBytes()
	cost := e.n.t.MessageCost(bytes) + e.n.t.jitterFor(e.rank, e.n.nextSeq(e.rank))
	e.n.inboxes[to] <- simMsg{s: s, due: time.Now().Add(cost)}
	return bytes, nil
}

// Recv waits at most timeout for a message to be handed over by the wire,
// then waits out whatever modelled wire time remains — a receiver that shows
// up after the due instant pays nothing, exactly a message that already
// landed. The modelled residual wait is part of the message's delivery, not
// of the receiver's patience, so it is deliberately not capped by timeout
// (the deadline guards against messages that never arrive, which a
// cost-modelled in-flight message is not).
func (e *simEndpoint) Recv(timeout time.Duration) (Shard, error) {
	var m simMsg
	if timeout <= 0 {
		m = <-e.n.inboxes[e.rank]
	} else {
		timer := time.NewTimer(timeout)
		select {
		case m = <-e.n.inboxes[e.rank]:
			timer.Stop()
		case <-timer.C:
			return Shard{}, ErrRecvTimeout
		}
	}
	if wait := time.Until(m.due); wait > 0 {
		time.Sleep(wait)
	}
	return m.s, nil
}
