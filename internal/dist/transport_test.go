package dist

import (
	"strings"
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

// TestTransportsProduceBitIdenticalCross extends the relation to the
// inference kernel's ring exchange.
func TestTransportsProduceBitIdenticalCross(t *testing.T) {
	X := testData(t, 12, 6)
	testRows, trainRows := X[:5], X[5:]
	q := testKernel(6)
	ref, err := q.Cross(testRows, trainRows)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range testTransports() {
		res, err := ComputeCross(q, testRows, trainRows, Options{Procs: 3, Transport: tr})
		if err != nil {
			t.Fatalf("%s: %v", TransportName(tr), err)
		}
		for i := range ref {
			for j := range ref[i] {
				if res.Gram[i][j] != ref[i][j] {
					t.Fatalf("%s: cross entry (%d,%d) = %v, serial %v", TransportName(tr), i, j, res.Gram[i][j], ref[i][j])
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

// TestObservedRowCosts: ComputeGram and ComputeCrossStates must report a
// positive measured materialisation cost for every row under both
// strategies — the ground truth a later calibration of EstimateRowCost
// feeds on. ComputeCross mixes test and train materialisation in one phase
// and deliberately reports nothing.
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
	gramRes, err := ComputeGram(q, X[:8], Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	cross, err := ComputeCrossStates(q, X[8:], gramRes.States, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(cross.ObservedRowCosts) != 3 {
		t.Fatalf("cross-states reported %d observed costs for 3 test rows", len(cross.ObservedRowCosts))
	}
	for i, c := range cross.ObservedRowCosts {
		if c <= 0 {
			t.Fatalf("cross-states test row %d observed cost %v, want > 0", i, c)
		}
	}
	plain, err := ComputeCross(q, X[8:], X[:8], Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plain.ObservedRowCosts != nil {
		t.Fatalf("ComputeCross should not report row costs, got %d", len(plain.ObservedRowCosts))
	}
}
