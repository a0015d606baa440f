package dist

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// The pluggable wire. The round-robin Gram exchange (ring.go,
// roundrobin.go) is written once against the Transport/Network/Endpoint
// interfaces; which wire actually carries the shards is an Options choice:
//
//   - ChanTransport — in-process buffered channels, zero cost. The default,
//     and the fastest way to reproduce the paper's strategy trade-off when
//     only the message/byte *counts* matter.
//   - SimTransport  — the channel wire with a per-message latency/bandwidth/
//     jitter cost model, so ProcStats.CommTime and the Fig. 8 communication
//     bars reflect a parameterised network instead of a free one.
//   - TCPTransport  — real loopback TCP sockets with length-prefixed shard
//     framing, proving the same strategy code runs across genuine socket
//     boundaries (the seam a future multi-machine runtime plugs into).
//
// Every transport must deliver shards bit-identically — the metamorphic
// suite enforces that the Gram matrix is independent of the wire, with only
// the instrumentation (CommTime, byte counts) allowed to differ.

// Transport builds the wire connecting the k processes of one distributed
// computation. Implementations must be reusable: each round-robin
// ComputeGram call asks for a fresh Network.
type Transport interface {
	// Name is the flag-style name (ParseTransport's vocabulary).
	Name() string
	// Network wires up k ranks and returns their shared network. The caller
	// owns it and must Close it when the computation finishes.
	Network(k int) (Network, error)
}

// Network is one computation's instantiated wire.
type Network interface {
	// Endpoint returns rank p's attachment to the wire. Each rank must take
	// its endpoint exactly once; an endpoint is driven by that rank's
	// goroutine only (Send and Recv are not safe for concurrent use on one
	// endpoint).
	Endpoint(rank int) Endpoint
	// Close releases the wire's resources. The strategies close a network
	// only after every rank's goroutine has returned, so implementations
	// need not unblock in-flight Recvs — mid-computation failures reach a
	// receiver as an error from Recv itself (see TCPTransport's reader
	// envelopes), not through Close.
	Close() error
}

// Endpoint is one rank's port: framed shard payloads out, tagged shards in.
type Endpoint interface {
	// Send delivers s to rank `to` and returns the accounted wire bytes
	// (header + per-state framing + payloads — for TCPTransport this is the
	// exact byte count written to the socket). Sends never block on a slow
	// receiver: every network buffers at least the k−1 messages a rank can
	// receive per exchange phase, preserving the deadlock-freedom argument
	// of the ring schedule.
	Send(to int, s Shard) (int64, error)
	// Recv returns the next shard delivered to this rank, waiting at most
	// timeout (≤ 0 waits forever). Shards are tagged with their origin
	// (Shard.From), so arrival order is irrelevant. When the deadline
	// expires first, Recv returns ErrRecvTimeout; when the wire learns a
	// peer can no longer deliver (a broken TCP connection), it returns a
	// *RankFailedError naming that peer. Either fails the exchange.
	Recv(timeout time.Duration) (Shard, error)
}

// ErrRecvTimeout is returned by Endpoint.Recv when the per-message deadline
// (Options.Deadline) expires before any shard arrives. The exchange then
// fails with an error that wraps it and names the ranks whose shards are
// missing.
var ErrRecvTimeout = errors.New("dist: shard receive deadline exceeded")

// RankFailedError names a peer the wire can no longer reach: a TCP reader
// delivers one through Recv when its connection breaks mid-read, and the
// ring returns one when a send to that peer fails. Either fails the
// exchange; Err is the wire's own error.
type RankFailedError struct {
	Rank int
	Err  error
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("dist: rank %d failed: %v", e.Rank, e.Err)
}

func (e *RankFailedError) Unwrap() error { return e.Err }

// ChanTransport is the in-process wire: per-rank buffered channels, zero
// latency, zero serialisation beyond the shard marshalling the strategies
// already perform. The zero value is ready to use and is the default
// transport when Options.Transport is nil.
type ChanTransport struct{}

// Name returns "chan".
func (ChanTransport) Name() string { return "chan" }

// Network builds the buffered-inbox wire for k ranks.
func (ChanTransport) Network(k int) (Network, error) {
	if k < 1 {
		return nil, fmt.Errorf("dist: network needs ≥ 1 rank, got %d", k)
	}
	return newChanNetwork(k), nil
}

// chanNetwork is the shared inbox array; also the delivery substrate
// SimTransport reuses (with cost envelopes).
type chanNetwork struct {
	inboxes []chan Shard
}

func newChanNetwork(k int) *chanNetwork {
	n := &chanNetwork{inboxes: make([]chan Shard, k)}
	for p := range n.inboxes {
		// Capacity for every message a rank can receive in one exchange
		// phase (k−1), with room to spare, so senders never block and no
		// schedule can deadlock even when the receiver has stopped
		// draining (it failed and returned).
		n.inboxes[p] = make(chan Shard, 3*k)
	}
	return n
}

func (n *chanNetwork) Endpoint(rank int) Endpoint { return &chanEndpoint{n: n, rank: rank} }

func (n *chanNetwork) Close() error { return nil }

type chanEndpoint struct {
	n    *chanNetwork
	rank int
}

func (e *chanEndpoint) Send(to int, s Shard) (int64, error) {
	if to < 0 || to >= len(e.n.inboxes) || to == e.rank {
		return 0, fmt.Errorf("dist: rank %d cannot send to %d", e.rank, to)
	}
	e.n.inboxes[to] <- s
	return s.WireBytes(), nil
}

func (e *chanEndpoint) Recv(timeout time.Duration) (Shard, error) {
	if timeout <= 0 {
		return <-e.n.inboxes[e.rank], nil
	}
	select {
	case s := <-e.n.inboxes[e.rank]:
		return s, nil
	default:
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case s := <-e.n.inboxes[e.rank]:
		return s, nil
	case <-timer.C:
		return Shard{}, ErrRecvTimeout
	}
}

// transportNames lists the flag vocabulary in presentation order; the
// constructors return ready-to-use default configurations (SimTransport's
// cost knobs default to a free wire — set them after parsing).
var transportNames = []string{"chan", "sim", "tcp"}

// ParseTransport maps a flag-style name to a fresh Transport with default
// configuration, mirroring ParseStrategy. SimTransport is returned as a
// pointer so callers can set its cost-model knobs (Latency, MBps, Jitter)
// after parsing.
func ParseTransport(name string) (Transport, error) {
	switch name {
	case "chan":
		return ChanTransport{}, nil
	case "sim":
		return &SimTransport{}, nil
	case "tcp":
		return TCPTransport{}, nil
	default:
		return nil, fmt.Errorf("dist: unknown transport %q (want %s)", name, strings.Join(transportNames, ", "))
	}
}

// TransportName names a transport for display and persistence; nil (the
// Options default) reads as the chan wire it resolves to.
func TransportName(t Transport) string {
	if t == nil {
		return ChanTransport{}.Name()
	}
	return t.Name()
}
