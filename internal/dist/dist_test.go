package dist

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dataset"
	"repro/internal/kernel"
)

// testData returns n rescaled rows with the given feature count.
func testData(t *testing.T, n, features int) [][]float64 {
	t.Helper()
	fit := n
	if fit < 16 {
		fit = 16
	}
	full := dataset.GenerateElliptic(dataset.EllipticConfig{
		Features: features, NumIllicit: fit, NumLicit: fit, Seed: 3,
	})
	sc, err := dataset.FitScaler(full)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := sc.Transform(full)
	if err != nil {
		t.Fatal(err)
	}
	return scaled.X[:n]
}

func testKernel(features int) *kernel.Quantum {
	return &kernel.Quantum{
		Ansatz: circuit.Ansatz{Qubits: features, Layers: 2, Distance: 2, Gamma: 0.7},
	}
}

func checkAgree(t *testing.T, name string, ref, got [][]float64) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(ref))
	}
	for i := range ref {
		if len(got[i]) != len(ref[i]) {
			t.Fatalf("%s: row %d has %d cols, want %d", name, i, len(got[i]), len(ref[i]))
		}
		for j := range ref[i] {
			if math.Abs(ref[i][j]-got[i][j]) > 1e-8 {
				t.Fatalf("%s: entry (%d,%d) differs: %v vs %v", name, i, j, got[i][j], ref[i][j])
			}
		}
	}
}

// checkIdentical is checkAgree at ==: paths that compute the same overlaps
// in the same orientation must reproduce the reference bit for bit, not
// merely close.
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

func TestStrategyString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || NoMessaging.String() != "no-messaging" {
		t.Fatalf("strategy names wrong: %q, %q", RoundRobin, NoMessaging)
	}
	if s := Strategy(99).String(); !strings.Contains(s, "99") {
		t.Fatalf("unknown strategy should name its value, got %q", s)
	}
}

func TestParseStrategyRoundTrips(t *testing.T) {
	for _, s := range []Strategy{RoundRobin, NoMessaging} {
		got, err := ParseStrategy(s.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Fatalf("parse(%q) = %v", s, got)
		}
	}
	if _, err := ParseStrategy("telepathy"); err == nil {
		t.Fatal("unknown name must error")
	}
}

// TestGramAgreesWithSerial is the package-local version of the integration
// suite's metamorphic relation: every (strategy × procs) combination must
// reproduce the serial Gram matrix to 1e-8.
func TestGramAgreesWithSerial(t *testing.T) {
	X := testData(t, 11, 8)
	q := testKernel(8)
	ref, err := q.Gram(X)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{RoundRobin, NoMessaging} {
		for _, k := range []int{1, 2, 5} {
			res, err := ComputeGram(q, X, Options{Procs: k, Strategy: strat})
			if err != nil {
				t.Fatalf("%v procs=%d: %v", strat, k, err)
			}
			checkAgree(t, strat.String(), ref, res.Gram)
			if len(res.Procs) != k {
				t.Fatalf("%v procs=%d: %d stats entries", strat, k, len(res.Procs))
			}
		}
	}
}

// TestProcsExceedDataSize: more processes than states must still work, with
// the excess processes idle.
func TestProcsExceedDataSize(t *testing.T) {
	X := testData(t, 3, 6)
	q := testKernel(6)
	ref, err := q.Gram(X)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{RoundRobin, NoMessaging} {
		res, err := ComputeGram(q, X, Options{Procs: 5, Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		checkAgree(t, strat.String(), ref, res.Gram)
		if len(res.Procs) != 5 {
			t.Fatalf("%v: want 5 proc stats, got %d", strat, len(res.Procs))
		}
		for _, ps := range res.Procs[3:] {
			if ps.StatesSimulated != 0 || ps.InnerProducts != 0 {
				t.Fatalf("%v: idle proc %d did work: %+v", strat, ps.Rank, ps)
			}
		}
	}
}

func TestBytesAccounting(t *testing.T) {
	X := testData(t, 9, 6)
	q := testKernel(6)

	nm, err := ComputeGram(q, X, Options{Procs: 3, Strategy: NoMessaging})
	if err != nil {
		t.Fatal(err)
	}
	if nm.TotalBytes() != 0 || nm.TotalMessages() != 0 {
		t.Fatalf("no-messaging communicated: %d bytes, %d messages", nm.TotalBytes(), nm.TotalMessages())
	}

	rr, err := ComputeGram(q, X, Options{Procs: 3, Strategy: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	if rr.TotalBytes() <= 0 {
		t.Fatalf("round-robin on 3 procs sent %d bytes", rr.TotalBytes())
	}
	// Ring exchange: every process sends its shard to each of the other two.
	if rr.TotalMessages() != 3*2 {
		t.Fatalf("round-robin on 3 procs sent %d messages, want 6", rr.TotalMessages())
	}
	// Single process: nothing to exchange.
	solo, err := ComputeGram(q, X, Options{Procs: 1, Strategy: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	if solo.TotalBytes() != 0 || solo.TotalMessages() != 0 {
		t.Fatalf("1-proc round-robin communicated: %+v", solo.Procs[0])
	}
}

// TestPhaseTimes: phases are elapsed wall-clock inside each process's own
// timeline, so they are non-negative and their sum over all processes is
// bounded by Wall × procs.
func TestPhaseTimes(t *testing.T) {
	X := testData(t, 10, 6)
	q := testKernel(6)
	for _, strat := range []Strategy{RoundRobin, NoMessaging} {
		res, err := ComputeGram(q, X, Options{Procs: 3, Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		if res.Wall <= 0 {
			t.Fatalf("%v: non-positive wall %v", strat, res.Wall)
		}
		var sum int64
		for _, ps := range res.Procs {
			if ps.SimTime < 0 || ps.InnerTime < 0 || ps.CommTime < 0 {
				t.Fatalf("%v: negative phase time: %+v", strat, ps)
			}
			sum += int64(ps.SimTime + ps.InnerTime + ps.CommTime)
		}
		if sum > int64(res.Wall)*int64(len(res.Procs)) {
			t.Fatalf("%v: phase sum %v exceeds wall %v × %d procs", strat, sum, res.Wall, len(res.Procs))
		}
		sim, inner, comm := res.MaxPhaseTimes()
		if sim < 0 || inner < 0 || comm < 0 || sim+inner+comm > res.Wall*3 {
			t.Fatalf("%v: implausible max phase times %v/%v/%v for wall %v", strat, sim, inner, comm, res.Wall)
		}
	}
}

// TestWorkAccounting checks the strategies' structural signatures: both
// compute exactly the n(n+1)/2 upper-triangle overlaps once, round-robin
// simulates each state exactly once cluster-wide, and no-messaging pays
// redundant simulations for its silence.
func TestWorkAccounting(t *testing.T) {
	n := 12
	X := testData(t, n, 6)
	q := testKernel(6)
	wantPairs := n * (n + 1) / 2

	totals := map[Strategy]int{}
	for _, strat := range []Strategy{RoundRobin, NoMessaging} {
		res, err := ComputeGram(q, X, Options{Procs: 4, Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		pairs, sims := 0, 0
		for _, ps := range res.Procs {
			pairs += ps.InnerProducts
			sims += ps.StatesSimulated
		}
		if pairs != wantPairs {
			t.Fatalf("%v: %d inner products, want %d", strat, pairs, wantPairs)
		}
		totals[strat] = sims
	}
	if totals[RoundRobin] != n {
		t.Fatalf("round-robin simulated %d states, want exactly %d", totals[RoundRobin], n)
	}
	if totals[NoMessaging] <= n {
		t.Fatalf("no-messaging simulated %d states, expected redundancy beyond %d", totals[NoMessaging], n)
	}
}

// TestComputeCrossAgreesWithSerial: the inference kernel computed from the
// training states a ComputeGram retained is bit-identical to the serial
// kernel.Cross at every process count, with every test×train overlap
// computed exactly once.
func TestComputeCrossAgreesWithSerial(t *testing.T) {
	X := testData(t, 13, 6)
	testRows, trainRows := X[:4], X[4:]
	q := testKernel(6)
	ref, err := q.Cross(testRows, trainRows)
	if err != nil {
		t.Fatal(err)
	}
	gramRes, err := ComputeGram(q, trainRows, Options{Procs: 3, Strategy: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 6} {
		res, err := ComputeCrossStates(q, testRows, gramRes.States, Options{Procs: k})
		if err != nil {
			t.Fatalf("procs=%d: %v", k, err)
		}
		checkIdentical(t, fmt.Sprintf("cross procs=%d", k), ref, res.Gram)
		pairs := 0
		for _, ps := range res.Procs {
			pairs += ps.InnerProducts
		}
		if pairs != len(testRows)*len(trainRows) {
			t.Fatalf("procs=%d: %d inner products, want %d", k, pairs, len(testRows)*len(trainRows))
		}
	}
}

func TestValidation(t *testing.T) {
	X := testData(t, 4, 6)
	q := testKernel(6)
	if _, err := ComputeGram(nil, X, Options{Procs: 2, Strategy: RoundRobin}); err == nil {
		t.Fatal("nil kernel must error")
	}
	if _, err := ComputeGram(q, X, Options{Procs: -2, Strategy: RoundRobin}); err == nil {
		t.Fatal("negative procs must error")
	}
	if _, err := ComputeGram(q, X, Options{Procs: 2, Strategy: Strategy(42)}); err == nil {
		t.Fatal("unknown strategy must error")
	}
}

// TestSimulationErrorsPropagate: a malformed row (wrong feature count) must
// surface as an error from both strategies without deadlocking the exchange.
func TestSimulationErrorsPropagate(t *testing.T) {
	X := testData(t, 6, 6)
	bad := make([][]float64, len(X))
	copy(bad, X)
	bad[3] = []float64{0.5} // wrong dimension for an 6-qubit ansatz
	q := testKernel(6)
	for _, strat := range []Strategy{RoundRobin, NoMessaging} {
		if _, err := ComputeGram(q, bad, Options{Procs: 3, Strategy: strat}); err == nil {
			t.Fatalf("%v: malformed row must error", strat)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	q := testKernel(6)
	res, err := ComputeGram(q, nil, Options{Procs: 2, Strategy: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Gram) != 0 {
		t.Fatalf("empty input produced %d rows", len(res.Gram))
	}
}
