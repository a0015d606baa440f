package dist

import (
	"errors"
	"flag"
	"net"
	"testing"
	"time"
)

// checkIdentical is the chaos suite's stronger cousin of checkAgree: the
// recovery path re-simulates lost rows through the same code as the healthy
// path, so the recovered Gram must be BIT-identical to the serial reference,
// not merely close.
func checkIdentical(t *testing.T, name string, ref, got [][]float64) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(ref))
	}
	for i := range ref {
		if len(got[i]) != len(ref[i]) {
			t.Fatalf("%s: row %d has %d cols, want %d", name, i, len(got[i]), len(ref[i]))
		}
		for j := range ref[i] {
			if got[i][j] != ref[i][j] {
				t.Fatalf("%s: entry (%d,%d) not bit-identical: %v vs %v", name, i, j, got[i][j], ref[i][j])
			}
		}
	}
}

// chaosCase is one seeded fault plan plus the recovery signature it must
// leave behind. Every case must reproduce the serial Gram bit-identically;
// the want* fields pin down WHICH machinery did the reproducing.
type chaosCase struct {
	name          string
	plan          FaultPlan
	deadline      time.Duration
	retries       int
	wantTimeouts  bool // at least one receive deadline expired
	wantRecovered bool // at least one row was recomputed locally
	wantDups      bool // at least one duplicate delivery was discarded
	wantRetries   bool // at least one send retry happened
}

func chaosCases() []chaosCase {
	return []chaosCase{
		{name: "drop-all", plan: FaultPlan{Seed: 5, DropProb: 1},
			deadline: 150 * time.Millisecond, wantTimeouts: true, wantRecovered: true},
		{name: "drop-partial", plan: FaultPlan{Seed: 11, DropProb: 0.5},
			deadline: 150 * time.Millisecond, wantTimeouts: true, wantRecovered: true},
		{name: "dup-all", plan: FaultPlan{Seed: 7, DupProb: 1},
			deadline: 2 * time.Second, wantDups: true},
		{name: "delay-within-deadline", plan: FaultPlan{Seed: 3, DelayProb: 1, Delay: 2 * time.Millisecond},
			deadline: 5 * time.Second},
		{name: "crash-one", plan: FaultPlan{Seed: 1, CrashRanks: []int{1}},
			deadline: 2 * time.Second, wantRecovered: true},
		{name: "crash-two-survivor-takeover", plan: FaultPlan{Seed: 1, CrashRanks: []int{0, 1}},
			deadline: 2 * time.Second, wantRecovered: true},
		{name: "send-fail-retry", plan: FaultPlan{Seed: 9, SendFailProb: 0.6},
			deadline: 150 * time.Millisecond, retries: 6, wantRetries: true},
		{name: "everything-at-once", plan: FaultPlan{Seed: 42, DropProb: 0.3, DupProb: 0.3, DelayProb: 0.3, Delay: time.Millisecond, CrashRanks: []int{2}},
			deadline: 150 * time.Millisecond, wantTimeouts: true, wantRecovered: true},
	}
}

// runChaosGram runs one plan over the given inner transport and checks the
// full recovery contract: bit-identical Gram, complete retained states and
// row costs, and counters consistent with the faults that actually fired.
func runChaosGram(t *testing.T, tc chaosCase, inner Transport) {
	t.Helper()
	X := testData(t, 12, 6)
	q := testKernel(6)
	ref, err := q.Gram(X)
	if err != nil {
		t.Fatal(err)
	}
	ft := &FaultTransport{Inner: inner, Plan: tc.plan}
	res, err := ComputeGram(q, X, Options{
		Procs: 3, Strategy: RoundRobin, Transport: ft,
		Deadline: tc.deadline, MaxRetries: tc.retries, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("ComputeGram under %s: %v", tc.name, err)
	}
	checkIdentical(t, tc.name, ref, res.Gram)
	if len(res.States) != len(X) {
		t.Fatalf("%s: %d retained states, want %d", tc.name, len(res.States), len(X))
	}
	for i, st := range res.States {
		if st == nil {
			t.Fatalf("%s: retained state %d is nil — recovery did not republish it", tc.name, i)
		}
	}
	for i, c := range res.ObservedRowCosts {
		if c <= 0 {
			t.Fatalf("%s: row cost %d is %v — recovery did not republish it", tc.name, i, c)
		}
	}

	stats := ft.Stats()
	if got := res.TotalTimeouts() > 0; got != tc.wantTimeouts {
		t.Errorf("%s: timeouts=%d, wantTimeouts=%v", tc.name, res.TotalTimeouts(), tc.wantTimeouts)
	}
	if tc.wantRecovered && res.TotalRecoveredRows() == 0 {
		t.Errorf("%s: expected recovered rows, got none", tc.name)
	}
	if got := res.TotalDupsDropped() > 0; got != tc.wantDups {
		t.Errorf("%s: dupsDropped=%d, wantDups=%v", tc.name, res.TotalDupsDropped(), tc.wantDups)
	}
	if tc.wantRetries && res.TotalRetries() == 0 {
		t.Errorf("%s: expected send retries, got none", tc.name)
	}
	// Recovery counters must be nonzero exactly when a shard-losing fault
	// fired: dropped or never-sent messages and crashed ranks lose shards;
	// duplicates and small delays do not.
	crashed := len(tc.plan.crashes(3)) > 0
	lossy := stats.Dropped > 0 || stats.SendFailures > 0 || crashed
	if lossy && res.TotalRecoveredRows() == 0 {
		// A send failure only loses the shard if the retry budget ran out.
		exhausted := false
		for _, ps := range res.Procs {
			if ps.SendFailures > 0 {
				exhausted = true
			}
		}
		if stats.Dropped > 0 || crashed || exhausted {
			t.Errorf("%s: lossy faults fired (%+v) but no rows were recovered", tc.name, stats)
		}
	}
	if !lossy && res.TotalRecoveredRows() > 0 {
		t.Errorf("%s: no lossy fault fired (%+v) yet %d rows were recovered", tc.name, stats, res.TotalRecoveredRows())
	}
	for _, c := range tc.plan.crashes(3) {
		ps := res.Procs[c]
		if !ps.Crashed {
			t.Errorf("%s: rank %d should be marked crashed", tc.name, c)
		}
		if ps.MessagesSent != 0 {
			t.Errorf("%s: crashed rank %d sent %d messages", tc.name, c, ps.MessagesSent)
		}
	}
}

// TestChaosMetamorphicGram is the tentpole suite: transport × seeded fault
// plan, each case asserting the recovered Gram is bit-identical to the
// serial kernel.
func TestChaosMetamorphicGram(t *testing.T) {
	for _, tc := range chaosCases() {
		t.Run("chan/"+tc.name, func(t *testing.T) { runChaosGram(t, tc, ChanTransport{}) })
	}
	// The sim wire exercises the same plans through its cost-model delivery
	// path; a light cost model keeps the suite fast.
	for _, tc := range []string{"drop-all", "crash-one", "dup-all"} {
		for _, c := range chaosCases() {
			if c.name == tc {
				t.Run("sim/"+c.name, func(t *testing.T) {
					runChaosGram(t, c, &SimTransport{Latency: 50 * time.Microsecond})
				})
			}
		}
	}
}

// TestChaosMetamorphicGramTCP runs the shard-losing plans over real loopback
// sockets: the timeout, crash-envelope and recovery paths must behave
// identically on a wire with real framing and reader goroutines.
func TestChaosMetamorphicGramTCP(t *testing.T) {
	for _, name := range []string{"drop-all", "crash-one", "crash-two-survivor-takeover"} {
		for _, c := range chaosCases() {
			if c.name == name {
				t.Run("tcp/"+c.name, func(t *testing.T) { runChaosGram(t, c, TCPTransport{}) })
			}
		}
	}
}

// TestChaosNoMessagingUntouched: the no-messaging strategy never puts a
// shard on the wire, so even an aggressive fault plan must inject nothing
// and recover nothing.
func TestChaosNoMessagingUntouched(t *testing.T) {
	X := testData(t, 10, 6)
	q := testKernel(6)
	ref, err := q.Gram(X)
	if err != nil {
		t.Fatal(err)
	}
	ft := &FaultTransport{Inner: ChanTransport{}, Plan: FaultPlan{Seed: 5, DropProb: 1, DupProb: 1}}
	res, err := ComputeGram(q, X, Options{Procs: 3, Strategy: NoMessaging, Transport: ft})
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, "no-messaging", ref, res.Gram)
	if res.TotalMessages() != 0 || res.TotalRecoveredRows() != 0 || res.TotalTimeouts() != 0 {
		t.Fatalf("no-messaging touched the wire: messages=%d recovered=%d timeouts=%d",
			res.TotalMessages(), res.TotalRecoveredRows(), res.TotalTimeouts())
	}
	if s := ft.Stats(); s != (FaultStats{}) {
		t.Fatalf("faults injected on a messageless strategy: %+v", s)
	}
}

// TestChaosDeterministic: same plan, same schedule ⇒ identical injected
// faults and identical recovery counters, run after run.
func TestChaosDeterministic(t *testing.T) {
	X := testData(t, 12, 6)
	q := testKernel(6)
	run := func() (FaultStats, int, int) {
		ft := &FaultTransport{Inner: ChanTransport{}, Plan: FaultPlan{Seed: 11, DropProb: 0.5}}
		res, err := ComputeGram(q, X, Options{
			Procs: 3, Strategy: RoundRobin, Transport: ft,
			Deadline: 150 * time.Millisecond, Backoff: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ft.Stats(), res.TotalTimeouts(), res.TotalRecoveredRows()
	}
	s1, t1, r1 := run()
	s2, t2, r2 := run()
	if s1 != s2 || t1 != t2 || r1 != r2 {
		t.Fatalf("chaos not deterministic: (%+v,%d,%d) vs (%+v,%d,%d)", s1, t1, r1, s2, t2, r2)
	}
	if s1.Dropped == 0 {
		t.Fatalf("seed 11 at p=0.5 should drop something over 6 messages: %+v", s1)
	}
}

// TestFaultPlanAllCrashedRejected: a plan that kills every rank has no
// survivor to recover, so network construction must fail loudly.
func TestFaultPlanAllCrashedRejected(t *testing.T) {
	ft := &FaultTransport{Plan: FaultPlan{CrashRanks: []int{0, 1, 2}}}
	if _, err := ft.Network(3); err == nil {
		t.Fatal("crashing all ranks must be rejected")
	}
	// k=1 ignores crashes entirely (whole-cluster loss is not recoverable).
	n, err := ft.Network(1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
}

// TestFaultTransportNameAndUnwrap: the wrapper's name prefixes the wire's,
// and BaseTransport recovers the inner transport (what persistence stores).
func TestFaultTransportNameAndUnwrap(t *testing.T) {
	inner := TCPTransport{}
	ft := &FaultTransport{Inner: inner}
	if got := ft.Name(); got != "fault+tcp" {
		t.Fatalf("Name() = %q", got)
	}
	if got := TransportName(BaseTransport(ft)); got != "tcp" {
		t.Fatalf("BaseTransport name = %q", got)
	}
	nested := &FaultTransport{Inner: ft}
	if got := TransportName(BaseTransport(nested)); got != "tcp" {
		t.Fatalf("nested BaseTransport name = %q", got)
	}
	if got := TransportName(BaseTransport(ChanTransport{})); got != "chan" {
		t.Fatalf("plain transport must unwrap to itself, got %q", got)
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

// TestFaultRetryBackoff: exponential growth, a 32× cap, and deterministic
// jitter.
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

// TestFaultFlagsWrap: the CLI bundle builds the right wrapper and validates
// its inputs.
func TestFaultFlagsWrap(t *testing.T) {
	newFlags := func(args ...string) (*FaultFlags, error) {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		var ff FaultFlags
		ff.Register(fs)
		return &ff, fs.Parse(args)
	}

	ff, err := newFlags()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ff.Wrap(ChanTransport{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.(*FaultTransport); ok {
		t.Fatal("no chaos flags set: transport must pass through unwrapped")
	}

	ff, err = newFlags("-fault-drop", "0.25", "-fault-crash", "1, 2", "-fault-seed", "9")
	if err != nil {
		t.Fatal(err)
	}
	tr, err = ff.Wrap(TCPTransport{})
	if err != nil {
		t.Fatal(err)
	}
	ft, ok := tr.(*FaultTransport)
	if !ok {
		t.Fatalf("chaos flags set: got %T, want *FaultTransport", tr)
	}
	if ft.Plan.DropProb != 0.25 || ft.Plan.Seed != 9 || len(ft.Plan.CrashRanks) != 2 || ft.Plan.CrashRanks[1] != 2 {
		t.Fatalf("plan not carried over: %+v", ft.Plan)
	}

	if ff, err = newFlags("-fault-drop", "1.5"); err != nil {
		t.Fatal(err)
	}
	if _, err := ff.Wrap(ChanTransport{}); err == nil {
		t.Fatal("out-of-range probability must be rejected")
	}
	if ff, err = newFlags("-fault-crash", "one"); err != nil {
		t.Fatal(err)
	}
	if _, err := ff.Wrap(ChanTransport{}); err == nil {
		t.Fatal("non-numeric crash rank must be rejected")
	}

	ff, err = newFlags("-dist-deadline", "5s", "-dist-retries", "4", "-dist-backoff", "3ms")
	if err != nil {
		t.Fatal(err)
	}
	o := ff.Apply(Options{Procs: 2})
	if o.Deadline != 5*time.Second || o.MaxRetries != 4 || o.Backoff != 3*time.Millisecond || o.Procs != 2 {
		t.Fatalf("Apply did not carry the knobs: %+v", o)
	}
}
