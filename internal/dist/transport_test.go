package dist

import (
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// testTransports returns one instance of every wire, freshly configured. The
// sim instance carries a nonzero cost model so the suite exercises the
// due-time delivery path, not just the zero-cost degenerate case.
func testTransports() []Transport {
	return []Transport{
		ChanTransport{},
		&SimTransport{Latency: 30 * time.Microsecond, MBps: 2048, Jitter: 10 * time.Microsecond, Seed: 7},
		TCPTransport{},
	}
}

// TestParseStrategyTable is the table-driven strategy-parser check: every
// canonical name round-trips and bad names produce an actionable error.
func TestParseStrategyTable(t *testing.T) {
	cases := []struct {
		name    string
		want    Strategy
		wantErr bool
	}{
		{name: "round-robin", want: RoundRobin},
		{name: "no-messaging", want: NoMessaging},
		{name: "roundrobin", wantErr: true},
		{name: "RR", wantErr: true},
		{name: "", wantErr: true},
	}
	for _, tc := range cases {
		got, err := ParseStrategy(tc.name)
		if tc.wantErr {
			if err == nil {
				t.Fatalf("ParseStrategy(%q) accepted", tc.name)
			}
			// The error must teach the valid vocabulary.
			if !strings.Contains(err.Error(), "round-robin") || !strings.Contains(err.Error(), "no-messaging") {
				t.Fatalf("ParseStrategy(%q) error does not list valid values: %v", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ParseStrategy(%q): %v", tc.name, err)
		}
		if got != tc.want {
			t.Fatalf("ParseStrategy(%q) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestParseTransportTable mirrors the strategy table for the transport
// parser: canonical names produce the right implementation, the name
// round-trips through Name(), and bad names list the vocabulary.
func TestParseTransportTable(t *testing.T) {
	cases := []struct {
		name    string
		wantErr bool
	}{
		{name: "chan"},
		{name: "sim"},
		{name: "tcp"},
		{name: "grpc", wantErr: true},
		{name: "TCP", wantErr: true},
		{name: "", wantErr: true},
	}
	for _, tc := range cases {
		tr, err := ParseTransport(tc.name)
		if tc.wantErr {
			if err == nil {
				t.Fatalf("ParseTransport(%q) accepted", tc.name)
			}
			for _, valid := range transportNames {
				if !strings.Contains(err.Error(), valid) {
					t.Fatalf("ParseTransport(%q) error does not list %q: %v", tc.name, valid, err)
				}
			}
			continue
		}
		if err != nil {
			t.Fatalf("ParseTransport(%q): %v", tc.name, err)
		}
		if tr.Name() != tc.name {
			t.Fatalf("ParseTransport(%q).Name() = %q", tc.name, tr.Name())
		}
		if TransportName(tr) != tc.name {
			t.Fatalf("TransportName(%q instance) = %q", tc.name, TransportName(tr))
		}
	}
	if TransportName(nil) != "chan" {
		t.Fatalf("nil transport should read as the chan default, got %q", TransportName(nil))
	}
	// Parsed sim transports must be configurable (the flag layer sets the
	// cost knobs after parsing).
	tr, err := ParseTransport("sim")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.(*SimTransport); !ok {
		t.Fatalf("ParseTransport(\"sim\") returned %T, want *SimTransport", tr)
	}
}

// TestWireFlagsBuild: the shared CLI flag bundle wires the cost knobs onto
// the sim transport and rejects them on wires that have no cost model.
func TestWireFlagsBuild(t *testing.T) {
	wf := WireFlags{Name: "sim", LatencyUS: 250, MBps: 64, JitterUS: 40}
	tr, err := wf.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim, ok := tr.(*SimTransport)
	if !ok {
		t.Fatalf("built %T, want *SimTransport", tr)
	}
	if sim.Latency != 250*time.Microsecond || sim.MBps != 64 || sim.Jitter != 40*time.Microsecond {
		t.Fatalf("cost knobs not applied: %+v", sim)
	}
	if _, err := (&WireFlags{Name: "chan", LatencyUS: 100}).Build(); err == nil {
		t.Fatal("cost flags on the chan wire must be rejected")
	}
	if _, err := (&WireFlags{Name: "tcp", MBps: 10}).Build(); err == nil {
		t.Fatal("cost flags on the tcp wire must be rejected")
	}
	if _, err := (&WireFlags{Name: "warp"}).Build(); err == nil {
		t.Fatal("unknown wire must be rejected")
	}
	if tr, err := (&WireFlags{Name: "tcp"}).Build(); err != nil || tr.Name() != "tcp" {
		t.Fatalf("plain tcp build failed: %v, %v", tr, err)
	}
}

// TestTransportsProduceBitIdenticalGram is the wire half of the metamorphic
// suite: every transport × strategy × procs combination must reproduce the
// serial kernel.Gram matrix bit for bit — transports may only change the
// instrumentation, never an entry. (Serialise→deserialise round-trips
// float64 payloads exactly, so equality here is ==, not a tolerance.)
func TestTransportsProduceBitIdenticalGram(t *testing.T) {
	X := testData(t, 10, 6)
	q := testKernel(6)
	ref, err := q.Gram(X)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range testTransports() {
		for _, strat := range []Strategy{RoundRobin, NoMessaging} {
			for _, k := range []int{1, 3} {
				res, err := ComputeGram(q, X, Options{Procs: k, Strategy: strat, Transport: tr})
				if err != nil {
					t.Fatalf("%s/%v procs=%d: %v", TransportName(tr), strat, k, err)
				}
				for i := range ref {
					for j := range ref[i] {
						if res.Gram[i][j] != ref[i][j] {
							t.Fatalf("%s/%v procs=%d: entry (%d,%d) = %v, serial %v (must be bit-identical)",
								TransportName(tr), strat, k, i, j, res.Gram[i][j], ref[i][j])
						}
					}
				}
				if k > 1 && strat == RoundRobin && res.TotalMessages() == 0 {
					t.Fatalf("%s round-robin on %d procs sent no messages", TransportName(tr), k)
				}
			}
		}
	}
}

// TestTCPTransportByteAccounting: the accounted wire volume of a loopback
// TCP run matches the chan wire's accounting exactly — WireBytes is the
// frame layout both transports report and tcp literally writes — and the
// ring message count is unchanged.
func TestTCPTransportByteAccounting(t *testing.T) {
	X := testData(t, 9, 6)
	q := testKernel(6)
	ch, err := ComputeGram(q, X, Options{Procs: 3, Strategy: RoundRobin, Transport: ChanTransport{}})
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := ComputeGram(q, X, Options{Procs: 3, Strategy: RoundRobin, Transport: TCPTransport{}})
	if err != nil {
		t.Fatal(err)
	}
	if ch.TotalBytes() != tcp.TotalBytes() {
		t.Fatalf("tcp accounted %d bytes, chan %d — the framing must agree", tcp.TotalBytes(), ch.TotalBytes())
	}
	if ch.TotalMessages() != tcp.TotalMessages() {
		t.Fatalf("tcp sent %d messages, chan %d", tcp.TotalMessages(), ch.TotalMessages())
	}
	if tcp.TotalBytes() <= 0 {
		t.Fatalf("tcp round-robin on 3 procs accounted %d bytes", tcp.TotalBytes())
	}
}

// TestSimTransportLatencyIncreasesCommTime: charging the modelled wire must
// show up in the reported communication phase — and nowhere else. The Gram
// stays bit-identical while CommTime grows by at least the configured
// latency (each rank waits on k−1 messages whose delivery is withheld).
func TestSimTransportLatencyIncreasesCommTime(t *testing.T) {
	X := testData(t, 9, 6)
	q := testKernel(6)
	const latency = 5 * time.Millisecond
	free, err := ComputeGram(q, X, Options{Procs: 3, Strategy: RoundRobin, Transport: &SimTransport{}})
	if err != nil {
		t.Fatal(err)
	}
	priced, err := ComputeGram(q, X, Options{Procs: 3, Strategy: RoundRobin, Transport: &SimTransport{Latency: latency}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range free.Gram {
		for j := range free.Gram[i] {
			if free.Gram[i][j] != priced.Gram[i][j] {
				t.Fatalf("latency changed kernel entry (%d,%d): %v vs %v", i, j, priced.Gram[i][j], free.Gram[i][j])
			}
		}
	}
	_, _, freeComm := free.MaxPhaseTimes()
	_, _, pricedComm := priced.MaxPhaseTimes()
	if pricedComm < latency {
		t.Fatalf("priced comm wall %v below the %v per-message latency", pricedComm, latency)
	}
	if pricedComm <= freeComm {
		t.Fatalf("latency did not increase comm time: priced %v vs free %v", pricedComm, freeComm)
	}
}

// TestSimTransportCostModel pins the deterministic pieces of the cost model:
// the bandwidth term scales with message size and the jitter draw is
// reproducible and bounded.
func TestSimTransportCostModel(t *testing.T) {
	tr := &SimTransport{Latency: time.Millisecond, MBps: 1}
	if c := tr.MessageCost(0); c != time.Millisecond {
		t.Fatalf("zero-byte message should cost the pure latency, got %v", c)
	}
	// 1 MiB at 1 MiB/s is one second on the wire, plus latency.
	if c := tr.MessageCost(1 << 20); c != time.Second+time.Millisecond {
		t.Fatalf("1 MiB at 1 MiB/s should cost 1.001s, got %v", c)
	}
	unlimited := &SimTransport{Latency: time.Millisecond}
	if c := unlimited.MessageCost(1 << 30); c != time.Millisecond {
		t.Fatalf("unlimited bandwidth should ignore size, got %v", c)
	}
	jit := &SimTransport{Jitter: time.Millisecond, Seed: 42}
	for from := 0; from < 3; from++ {
		for seq := 0; seq < 16; seq++ {
			j := jit.jitterFor(from, seq)
			if j < 0 || j >= time.Millisecond {
				t.Fatalf("jitter(%d,%d) = %v outside [0, 1ms)", from, seq, j)
			}
			if j != jit.jitterFor(from, seq) {
				t.Fatalf("jitter(%d,%d) not deterministic", from, seq)
			}
		}
	}
}

// TestObservedRowCosts: ComputeGram must report a positive measured
// materialisation cost for every row under both strategies — the ground
// truth a later calibration of EstimateRowCost feeds on.
func TestObservedRowCosts(t *testing.T) {
	X := testData(t, 11, 6)
	q := testKernel(6)
	for _, strat := range []Strategy{RoundRobin, NoMessaging} {
		res, err := ComputeGram(q, X, Options{Procs: 3, Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(res.ObservedRowCosts) != len(X) {
			t.Fatalf("%v: %d observed costs for %d rows", strat, len(res.ObservedRowCosts), len(X))
		}
		distinct := map[time.Duration]bool{}
		for i, c := range res.ObservedRowCosts {
			if c <= 0 {
				t.Fatalf("%v: row %d observed cost %v, want > 0", strat, i, c)
			}
			distinct[c] = true
		}
		// Each row is timed on its own: with more distinct costs than ranks,
		// some rank's rows cannot all share one value.
		if len(distinct) <= 3 {
			t.Fatalf("%v: %d distinct costs over %d rows on 3 ranks, want each row timed itself", strat, len(distinct), len(X))
		}
	}
}

// sabotagedTransport wraps a wire for the failure tests: every Send goes
// through send, which may deliver it on the inner endpoint, lose it, or fail
// it. inner is the network the wrapped transport built.
type sabotagedTransport struct {
	inner Transport
	send  func(inner Network, ep Endpoint, from, to int, s Shard) (int64, error)
}

func (t *sabotagedTransport) Name() string { return TransportName(t.inner) }

func (t *sabotagedTransport) Network(k int) (Network, error) {
	n, err := t.inner.Network(k)
	if err != nil {
		return nil, err
	}
	return &sabotagedNetwork{Network: n, t: t}, nil
}

type sabotagedNetwork struct {
	Network
	t *sabotagedTransport
}

func (n *sabotagedNetwork) Endpoint(rank int) Endpoint {
	return &sabotagedEndpoint{Endpoint: n.Network.Endpoint(rank), n: n, rank: rank}
}

type sabotagedEndpoint struct {
	Endpoint
	n    *sabotagedNetwork
	rank int
}

func (e *sabotagedEndpoint) Send(to int, s Shard) (int64, error) {
	return e.n.t.send(e.n.Network, e.Endpoint, e.rank, to, s)
}

// TestGramFailsFastOnLostShard: a shard that cannot arrive fails the Gram
// with a typed error — at once when the wire knows the peer is gone, after
// Deadline when the shard just never shows up — and leaks no goroutines.
func TestGramFailsFastOnLostShard(t *testing.T) {
	X := testData(t, 6, 6)
	q := testKernel(6)
	run := func(t *testing.T, tr Transport, deadline time.Duration) (time.Duration, error) {
		t.Helper()
		before := runtime.NumGoroutine()
		start := time.Now()
		res, err := ComputeGram(q, X, Options{Procs: 2, Strategy: RoundRobin, Transport: tr, Deadline: deadline})
		elapsed := time.Since(start)
		if err == nil {
			t.Fatalf("ComputeGram returned a Gram (%d rows) despite a lost shard", len(res.Gram))
		}
		// Exiting goroutines may still be unwinding past their wg.Done.
		for wait := time.Now(); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Since(wait) > 2*time.Second {
				t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
			}
		}
		return elapsed, err
	}

	t.Run("tcp-peer-dies", func(t *testing.T) {
		sent := make(chan struct{})
		tr := &sabotagedTransport{inner: TCPTransport{}, send: func(inner Network, ep Endpoint, from, to int, s Shard) (int64, error) {
			if from == 0 {
				defer close(sent)
				return ep.Send(to, s)
			}
			// Rank 1 dies once rank 0's shard is on the wire, so rank 0's
			// send succeeds and only its receive can notice.
			<-sent
			for _, c := range inner.(*tcpNetwork).conns[1] {
				if c != nil {
					_ = c.c.Close()
				}
			}
			return ep.Send(to, s)
		}}
		elapsed, err := run(t, tr, 5*time.Second)
		var rf *RankFailedError
		if !errors.As(err, &rf) || rf.Rank != 1 {
			t.Fatalf("error %v does not name dead rank 1 as a *RankFailedError", err)
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) {
			t.Fatalf("error %v does not wrap the broken connection's cause", err)
		}
		if elapsed >= time.Second {
			t.Fatalf("a dead peer took %v to fail the Gram, want < 1s against a 5s deadline", elapsed)
		}
	})

	t.Run("chan-shard-lost", func(t *testing.T) {
		tr := &sabotagedTransport{inner: ChanTransport{}, send: func(_ Network, ep Endpoint, from, to int, s Shard) (int64, error) {
			if from == 1 && to == 0 {
				return s.WireBytes(), nil // lost in transit
			}
			return ep.Send(to, s)
		}}
		_, err := run(t, tr, 100*time.Millisecond)
		if !errors.Is(err, ErrRecvTimeout) {
			t.Fatalf("error %v does not wrap ErrRecvTimeout", err)
		}
		if !strings.Contains(err.Error(), "[1]") {
			t.Fatalf("error %q does not name missing rank [1]", err)
		}
	})
}

// TestChaosNoMessagingUntouched: the no-messaging strategy never puts a
// shard on the wire, so a wire on which every send fails changes nothing.
func TestChaosNoMessagingUntouched(t *testing.T) {
	X := testData(t, 10, 6)
	q := testKernel(6)
	ref, err := q.Gram(X)
	if err != nil {
		t.Fatal(err)
	}
	var sends atomic.Int64
	tr := &sabotagedTransport{inner: ChanTransport{}, send: func(Network, Endpoint, int, int, Shard) (int64, error) {
		sends.Add(1)
		return 0, errors.New("injected send failure")
	}}
	res, err := ComputeGram(q, X, Options{Procs: 3, Strategy: NoMessaging, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, "no-messaging", ref, res.Gram)
	if res.TotalMessages() != 0 || sends.Load() != 0 {
		t.Fatalf("no-messaging touched the wire: %d messages, %d send attempts", res.TotalMessages(), sends.Load())
	}
}

// TestFaultRecvTimeout: every wire's Recv honours its deadline with
// ErrRecvTimeout when nothing arrives.
func TestFaultRecvTimeout(t *testing.T) {
	for _, tr := range []Transport{ChanTransport{}, &SimTransport{}, TCPTransport{}} {
		n, err := tr.Network(2)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, err = n.Endpoint(0).Recv(20 * time.Millisecond)
		if !errors.Is(err, ErrRecvTimeout) {
			t.Errorf("%s: Recv = %v, want ErrRecvTimeout", TransportName(tr), err)
		}
		if time.Since(start) > 2*time.Second {
			t.Errorf("%s: deadline of 20ms took %v", TransportName(tr), time.Since(start))
		}
		n.Close()
	}
}

// TestFaultRetryBackoff: the dial backoff grows exponentially, caps at 32×,
// and jitters deterministically.
func TestFaultRetryBackoff(t *testing.T) {
	base := time.Millisecond
	prev := time.Duration(0)
	for attempt := 1; attempt <= 6; attempt++ {
		d := retryBackoff(base, attempt, 7)
		lo := base << uint(attempt-1)
		if d < lo || d > lo+lo/2 {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, lo, lo+lo/2)
		}
		if d <= prev {
			t.Fatalf("attempt %d: backoff %v did not grow past %v", attempt, d, prev)
		}
		prev = d
	}
	// Capped at 32×base (plus jitter) from attempt 6 on.
	if d := retryBackoff(base, 40, 7); d > 48*time.Millisecond {
		t.Fatalf("attempt 40: backoff %v exceeds the 32×base(+50%%) cap", d)
	}
	if retryBackoff(base, 3, 9) != retryBackoff(base, 3, 9) {
		t.Fatal("backoff must be deterministic for a fixed (attempt, seed)")
	}
	if retryBackoff(0, 3, 9) != 0 {
		t.Fatal("zero base must mean no pause")
	}
}

// TestFaultDialRetryExhausts: dialling a port nobody listens on burns the
// whole retry budget and reports the attempt count.
func TestFaultDialRetryExhausts(t *testing.T) {
	// Reserve a port, then close it so the dial target is dead.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	start := time.Now()
	if _, err := dialWithRetry(addr, 1, 2, time.Millisecond); err == nil {
		t.Fatal("dialling a closed port must fail")
	}
	if time.Since(start) < 2*time.Millisecond {
		t.Fatalf("retry backoff not applied: failed in %v", time.Since(start))
	}
}

// TestFaultDialRetrySucceedsLate: a listener that appears after the first
// attempt is reached by a later one — the mesh survives slow-starting peers.
func TestFaultDialRetrySucceedsLate(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // free the port; re-listen on it shortly
	go func() {
		time.Sleep(30 * time.Millisecond)
		l2, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the test will fail on dial and report it
		}
		defer l2.Close()
		c, err := l2.Accept()
		if err == nil {
			c.Close()
		}
	}()
	c, err := dialWithRetry(addr, 0, 8, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("dial with retries should reach the late listener: %v", err)
	}
	c.Close()
}
