package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// TCPTransport carries shards over real loopback TCP sockets with
// length-prefixed framing, proving the distribution strategies run unchanged
// across genuine socket boundaries — the seam a future multi-machine runtime
// (remote ranks instead of loopback) plugs into. Network(k) builds a full
// mesh: one TCP connection per rank pair, a background reader per connection
// end draining frames into the owning rank's buffered inbox (so writers
// never block on a slow receiver and the ring schedule stays deadlock-free),
// and Send writing exactly the bytes the wire accounting reports.
//
// The frame layout is the shard framing the byte accounting has always
// modelled: a 16-byte header (origin rank, state count), then per state a
// 16-byte record header (global index, payload length) and the
// mps.MarshalBinary payload.
//
// Mesh setup is bounded: each dial + hello is retried up to
// defaultDialRetries more times with exponential backoff (a peer's listener
// that is momentarily saturated or a transient refusal does not kill the
// whole network), and every early-return path releases what it opened — the
// per-rank listener closes via defer, dialled connections are registered in
// the mesh the moment they exist so the caller's Close tears them down.
type TCPTransport struct{}

// Dial budget per connection: the additional attempts after the first
// failure, and the base of the exponential backoff between them.
const (
	defaultDialRetries = 3
	defaultDialBackoff = 20 * time.Millisecond
)

// Name returns "tcp".
func (TCPTransport) Name() string { return "tcp" }

// maxTCPRanks bounds the mesh: setup dials each pair serially and relies on
// the listen backlog absorbing the pending connections, which common
// defaults comfortably cover at this scale.
const maxTCPRanks = 128

// Decode sanity bounds: a corrupt or hostile stream must fail cleanly, not
// allocate unbounded memory. frameAllocStep is the most readFrame allocates
// on the strength of a length prefix before the bytes behind it arrive.
const (
	maxFrameStates    = 1 << 20
	maxStatePayload   = 1 << 31
	frameAllocStep    = 256 << 10
	tcpNetworkAddress = "127.0.0.1:0"
)

// Network wires up k ranks over loopback sockets.
func (TCPTransport) Network(k int) (Network, error) {
	if k < 1 {
		return nil, fmt.Errorf("dist: network needs ≥ 1 rank, got %d", k)
	}
	if k > maxTCPRanks {
		return nil, fmt.Errorf("dist: tcp transport supports ≤ %d ranks, got %d", maxTCPRanks, k)
	}
	n := &tcpNetwork{
		conns:   make([][]*tcpConn, k),
		inboxes: make([]chan tcpMsg, k),
		closed:  make(chan struct{}),
	}
	for p := range n.conns {
		n.conns[p] = make([]*tcpConn, k)
		// Capacity for every message a rank can receive per exchange phase
		// (k−1) plus one error envelope per connection (k−1), with room to
		// spare: neither data deliveries nor failure reports can ever block
		// a reader, even when the receiving rank has failed and stopped
		// draining.
		n.inboxes[p] = make(chan tcpMsg, 3*k)
	}
	if err := n.dialMesh(k); err != nil {
		_ = n.Close()
		return nil, err
	}
	for p := 0; p < k; p++ {
		for q := 0; q < k; q++ {
			if c := n.conns[p][q]; c != nil {
				n.readers.Add(1)
				go n.readLoop(p, q, c)
			}
		}
	}
	return n, nil
}

// tcpMsg is a delivered shard or a wire failure.
type tcpMsg struct {
	s   Shard
	err error
}

// tcpConn is one end of a pairwise connection: the owning rank writes frames
// to reach the peer and its reader goroutine drains the peer's frames.
type tcpConn struct {
	c  net.Conn
	r  *bufio.Reader
	w  *bufio.Writer
	mu sync.Mutex // serialises writes (frames must not interleave)
}

type tcpNetwork struct {
	// conns[p][q] is rank p's end of the p↔q connection; nil on the
	// diagonal (and everywhere for k = 1).
	conns   [][]*tcpConn
	inboxes []chan tcpMsg
	readers sync.WaitGroup
	closing atomic.Bool
	closed  chan struct{}
	once    sync.Once
}

// dialMesh connects every rank pair: rank q listens, ranks p < q dial, and
// an 8-byte hello carrying the dialler's rank disambiguates accepted
// connections. Dialling before accepting is safe — the pending connections
// sit in the listen backlog (bounded by maxTCPRanks). On any error the
// partial mesh is fully released: dialRank's listener closes via defer, and
// every connection already established is registered in n.conns, which the
// caller tears down through n.Close.
func (n *tcpNetwork) dialMesh(k int) error {
	for q := 1; q < k; q++ {
		if err := n.dialRank(q); err != nil {
			return err
		}
	}
	return nil
}

// dialRank wires every rank p < q to rank q's listener.
func (n *tcpNetwork) dialRank(q int) error {
	ln, err := net.Listen("tcp", tcpNetworkAddress)
	if err != nil {
		return fmt.Errorf("dist: tcp listen for rank %d: %w", q, err)
	}
	defer ln.Close()
	for p := 0; p < q; p++ {
		c, err := dialWithRetry(ln.Addr().String(), p, defaultDialRetries, defaultDialBackoff)
		if err != nil {
			return fmt.Errorf("dist: tcp dial %d→%d: %w", p, q, err)
		}
		// Register immediately: from here the connection is owned by the
		// mesh, so an error on any later pair still closes it via n.Close.
		n.conns[p][q] = newTCPConn(c)
	}
	for i := 0; i < q; i++ {
		c, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("dist: tcp accept for rank %d: %w", q, err)
		}
		var hello [8]byte
		if _, err := io.ReadFull(c, hello[:]); err != nil {
			c.Close()
			return fmt.Errorf("dist: tcp hello for rank %d: %w", q, err)
		}
		p := int(binary.LittleEndian.Uint64(hello[:]))
		if p < 0 || p >= q || n.conns[q][p] != nil {
			c.Close()
			return fmt.Errorf("dist: tcp hello names bad rank %d", p)
		}
		n.conns[q][p] = newTCPConn(c)
	}
	return nil
}

// dialWithRetry dials the address and writes the 8-byte rank hello, retrying
// transient failures with exponential backoff + deterministic jitter. The
// first attempt is immediate; each of the `retries` additional attempts is
// preceded by retryBackoff. Returns the last error when the budget runs out.
func dialWithRetry(addr string, rank, retries int, backoff time.Duration) (net.Conn, error) {
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			time.Sleep(retryBackoff(backoff, attempt, uint64(rank)))
		}
		c, err := net.Dial("tcp", addr)
		if err != nil {
			lastErr = err
			continue
		}
		var hello [8]byte
		binary.LittleEndian.PutUint64(hello[:], uint64(rank))
		if _, err := c.Write(hello[:]); err != nil {
			c.Close()
			lastErr = err
			continue
		}
		return c, nil
	}
	return nil, lastErr
}

// retryBackoff is the pause before retry attempt n (1-based): base·2^(n−1),
// capped at 32·base, plus up to +50% deterministic jitter so simultaneous
// diallers decorrelate without losing reproducibility.
func retryBackoff(base time.Duration, attempt int, seed uint64) time.Duration {
	if base <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift < 0 {
		shift = 0
	}
	if shift > 5 {
		shift = 5
	}
	d := base << uint(shift)
	frac := float64(splitmix64(seed^uint64(attempt)<<32)>>11) / float64(1<<53)
	return d + time.Duration(frac*0.5*float64(d))
}

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}
}

// readLoop drains rank p's end of its connection to peer q into p's inbox
// until the network shuts down. Any failure before that — including a clean
// EOF from a dying peer — is delivered to the rank as a *RankFailedError
// naming q: swallowing it would leave a Recv blocked forever on a shard that
// can no longer arrive (the network is only closed after every rank returns,
// so the close-side escape hatch would never fire), and naming the peer lets
// the receiving rank fail with an error that says which peer is gone. The
// inbox is sized so the envelope push cannot block.
func (n *tcpNetwork) readLoop(p, q int, c *tcpConn) {
	defer n.readers.Done()
	for {
		s, err := readFrame(c.r)
		if err != nil {
			if n.closing.Load() {
				return
			}
			n.inboxes[p] <- tcpMsg{err: &RankFailedError{
				Rank: q,
				Err:  fmt.Errorf("dist: tcp recv at rank %d: %w", p, err),
			}}
			return
		}
		n.inboxes[p] <- tcpMsg{s: s}
	}
}

func (n *tcpNetwork) Endpoint(rank int) Endpoint { return &tcpEndpoint{n: n, rank: rank} }

// Close tears down every connection and waits for the readers to drain.
func (n *tcpNetwork) Close() error {
	n.once.Do(func() {
		n.closing.Store(true)
		close(n.closed)
		for _, row := range n.conns {
			for _, c := range row {
				if c != nil {
					_ = c.c.Close()
				}
			}
		}
	})
	n.readers.Wait()
	return nil
}

type tcpEndpoint struct {
	n    *tcpNetwork
	rank int
}

func (e *tcpEndpoint) Send(to int, s Shard) (int64, error) {
	if to < 0 || to >= len(e.n.conns) || to == e.rank {
		return 0, fmt.Errorf("dist: rank %d cannot send to %d", e.rank, to)
	}
	c := e.n.conns[e.rank][to]
	if c == nil {
		return 0, fmt.Errorf("dist: rank %d has no connection to %d", e.rank, to)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := writeFrame(c.w, s); err != nil {
		return 0, fmt.Errorf("dist: tcp send %d→%d: %w", e.rank, to, err)
	}
	if err := c.w.Flush(); err != nil {
		return 0, fmt.Errorf("dist: tcp send %d→%d: %w", e.rank, to, err)
	}
	return s.WireBytes(), nil
}

func (e *tcpEndpoint) Recv(timeout time.Duration) (Shard, error) {
	var timeoutC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	select {
	case m := <-e.n.inboxes[e.rank]:
		return m.s, m.err
	case <-timeoutC:
		return Shard{}, ErrRecvTimeout
	case <-e.n.closed:
		// A message may have landed concurrently with the close.
		select {
		case m := <-e.n.inboxes[e.rank]:
			return m.s, m.err
		default:
			return Shard{}, fmt.Errorf("dist: tcp network closed while rank %d was receiving", e.rank)
		}
	}
}

// writeFrame emits the shard in the accounted wire layout; WireBytes() is
// exactly the byte count written here.
func writeFrame(w *bufio.Writer, s Shard) error {
	var hdr [shardHeaderBytes]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(s.From))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(s.Blobs)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for a, blob := range s.Blobs {
		var rec [stateHeaderBytes]byte
		binary.LittleEndian.PutUint64(rec[0:8], uint64(s.Indices[a]))
		binary.LittleEndian.PutUint64(rec[8:16], uint64(len(blob)))
		if _, err := w.Write(rec[:]); err != nil {
			return err
		}
		if _, err := w.Write(blob); err != nil {
			return err
		}
	}
	return nil
}

// readFrame decodes one shard frame, with sanity bounds so a corrupt stream
// fails instead of allocating wildly. The length prefixes are claims, not
// facts: at most frameAllocStep bytes are allocated on their word alone, and
// anything larger grows only as the bytes actually arrive, so a short
// header announcing 2²⁰ states or a 2 GiB payload costs a few hundred KiB
// before it fails.
func readFrame(r io.Reader) (Shard, error) {
	var hdr [shardHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Shard{}, err
	}
	from := int(binary.LittleEndian.Uint64(hdr[0:8]))
	count := binary.LittleEndian.Uint64(hdr[8:16])
	if count > maxFrameStates {
		return Shard{}, fmt.Errorf("implausible state count %d", count)
	}
	// An index costs 8 bytes and a blob header 24, so this many records fit
	// the up-front budget; a larger count grows by append.
	n := min(int(count), frameAllocStep/32)
	s := Shard{From: from, Indices: make([]int, 0, n), Blobs: make([][]byte, 0, n)}
	for range count {
		var rec [stateHeaderBytes]byte
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return Shard{}, err
		}
		size := binary.LittleEndian.Uint64(rec[8:16])
		if size > maxStatePayload {
			return Shard{}, fmt.Errorf("implausible state payload %d bytes", size)
		}
		blob, err := readBlob(r, int(size))
		if err != nil {
			return Shard{}, err
		}
		s.Indices = append(s.Indices, int(binary.LittleEndian.Uint64(rec[0:8])))
		s.Blobs = append(s.Blobs, blob)
	}
	return s, nil
}

// readBlob reads a size-byte payload: in one exact allocation when size is
// within frameAllocStep (every real state payload so far), otherwise in
// frameAllocStep chunks appended as they are read.
func readBlob(r io.Reader, size int) ([]byte, error) {
	if size <= frameAllocStep {
		blob := make([]byte, size)
		_, err := io.ReadFull(r, blob)
		return blob, err
	}
	var blob []byte
	for len(blob) < size {
		chunk := min(size-len(blob), frameAllocStep)
		blob = slices.Grow(blob, chunk)
		if _, err := io.ReadFull(r, blob[len(blob):len(blob)+chunk]); err != nil {
			return nil, err
		}
		blob = blob[:len(blob)+chunk]
	}
	return blob, nil
}
