// Integration tests exercising the full pipeline across module boundaries:
// data generation → preprocessing → circuit construction → MPS simulation →
// distributed Gram computation → SVM training → metrics. These complement
// the per-package unit tests by checking that the pieces compose the way the
// qkernel CLI and experiment runners use them.
package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/kernel"
	"repro/internal/mps"
	"repro/internal/svm"
)

// TestEndToEndPipeline runs the complete classification pipeline at small
// scale and checks every artifact along the way.
func TestEndToEndPipeline(t *testing.T) {
	full := dataset.GenerateElliptic(dataset.EllipticConfig{
		Features: 24, NumIllicit: 80, NumLicit: 160, Seed: 5,
	})
	train, test, err := dataset.PrepareSplit(full, 120, 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 96 || test.Len() != 24 {
		t.Fatalf("split %d/%d", train.Len(), test.Len())
	}

	q := &kernel.Quantum{
		Ansatz: circuit.Ansatz{Qubits: 24, Layers: 2, Distance: 1, Gamma: 0.1},
	}
	gramRes, err := dist.ComputeGram(q, train.X, dist.Options{Procs: 4, Strategy: dist.RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	if err := kernel.ValidateGram(gramRes.Gram, 1e-8, false); err != nil {
		t.Fatal(err)
	}
	cross, err := q.CrossStates(test.X, gramRes.States, nil)
	if err != nil {
		t.Fatal(err)
	}
	model, met, bestC, err := svm.TrainBestC(gramRes.Gram, train.Y, cross, test.Y, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if model == nil || bestC <= 0 {
		t.Fatal("no model selected")
	}
	// The synthetic data is genuinely separable: the model must beat chance
	// on the test set (24 points, so the threshold allows sampling noise).
	if met.AUC < 0.55 {
		t.Fatalf("end-to-end AUC %v too close to chance", met.AUC)
	}
}

// TestStrategiesAndBackendsAllAgree computes the same Gram matrix through
// every independent path — sequential on both backends, then each
// distribution strategy × {1, 3} procs × each wire transport (in-process
// channels, the cost-modelled simulated network, loopback TCP sockets) —
// and demands they all agree. The transport sweep is the metamorphic
// relation that keeps the pluggable wire honest: only instrumentation may
// differ, never a kernel entry.
func TestStrategiesAndBackendsAllAgree(t *testing.T) {
	full := dataset.GenerateElliptic(dataset.EllipticConfig{
		Features: 8, NumIllicit: 8, NumLicit: 8, Seed: 9,
	})
	sc, err := dataset.FitScaler(full)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := sc.Transform(full)
	if err != nil {
		t.Fatal(err)
	}
	X := scaled.X[:10]
	ansatz := circuit.Ansatz{Qubits: 8, Layers: 2, Distance: 2, Gamma: 0.7}

	qSerial := &kernel.Quantum{Ansatz: ansatz, Config: mps.Config{Backend: backend.NewSerial()}}
	qParallel := &kernel.Quantum{Ansatz: ansatz, Config: mps.Config{Backend: backend.NewParallelWithOverhead(4, 0)}}

	ref, err := qSerial.Gram(X)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, g [][]float64) {
		t.Helper()
		for i := range ref {
			for j := range ref[i] {
				if math.Abs(ref[i][j]-g[i][j]) > 1e-8 {
					t.Fatalf("%s: entry (%d,%d) differs: %v vs %v", name, i, j, ref[i][j], g[i][j])
				}
			}
		}
	}

	gp, err := qParallel.Gram(X)
	if err != nil {
		t.Fatal(err)
	}
	check("parallel backend", gp)

	transports := []dist.Transport{
		dist.ChanTransport{},
		&dist.SimTransport{Latency: 50 * time.Microsecond, MBps: 1024, Jitter: 20 * time.Microsecond},
		dist.TCPTransport{},
	}
	for _, strat := range []dist.Strategy{dist.NoMessaging, dist.RoundRobin} {
		for _, k := range []int{1, 3} {
			for _, tr := range transports {
				res, err := dist.ComputeGram(qSerial, X, dist.Options{Procs: k, Strategy: strat, Transport: tr})
				if err != nil {
					t.Fatalf("%v k=%d %s: %v", strat, k, dist.TransportName(tr), err)
				}
				check(strat.String()+"/"+dist.TransportName(tr), res.Gram)
			}
		}
	}
}

// TestInferenceSingleDataPoint mirrors the paper's inference discussion: a
// new unlabeled point is simulated once and its kernel row against the
// stored training states feeds the trained model.
func TestInferenceSingleDataPoint(t *testing.T) {
	full := dataset.GenerateElliptic(dataset.EllipticConfig{
		Features: 10, NumIllicit: 40, NumLicit: 40, Seed: 13,
	})
	train, test, err := dataset.PrepareSplit(full, 60, 10, 13)
	if err != nil {
		t.Fatal(err)
	}
	q := &kernel.Quantum{Ansatz: circuit.Ansatz{Qubits: 10, Layers: 2, Distance: 1, Gamma: 0.5}}
	trainStates, err := q.States(train.X)
	if err != nil {
		t.Fatal(err)
	}
	gram := kernel.GramFromStates(trainStates, 0)
	model, err := svm.Train(gram, train.Y, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Classify one new point via its kernel row.
	newState, err := q.State(test.X[0])
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, len(trainStates))
	for j, ts := range trainStates {
		row[j] = mps.Overlap(newState, ts)
	}
	dec, err := model.Decision(row)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(dec) || math.IsInf(dec, 0) {
		t.Fatalf("decision value %v", dec)
	}
	// Must agree with the batch path.
	batch, err := model.DecisionBatch([][]float64{row})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(batch[0]-dec) > 1e-12 {
		t.Fatal("single and batch decisions differ")
	}
}

// TestTruncationBudgetEndToEnd: loosening the truncation budget must never
// increase the bond dimension, and the resulting kernel entries stay within
// the error bound of the budget.
func TestTruncationBudgetEndToEnd(t *testing.T) {
	full := dataset.GenerateElliptic(dataset.EllipticConfig{
		Features: 10, NumIllicit: 4, NumLicit: 4, Seed: 17,
	})
	sc, _ := dataset.FitScaler(full)
	scaled, _ := sc.Transform(full)
	X := scaled.X[:4]
	ansatz := circuit.Ansatz{Qubits: 10, Layers: 2, Distance: 3, Gamma: 0.8}

	exact := &kernel.Quantum{Ansatz: ansatz, Config: mps.Config{TruncationBudget: -1}}
	loose := &kernel.Quantum{Ansatz: ansatz, Config: mps.Config{TruncationBudget: 1e-6}}

	se, err := exact.States(X)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := loose.States(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range se {
		if sl[i].MaxBond() > se[i].MaxBond() {
			t.Fatalf("looser budget grew χ: %d > %d", sl[i].MaxBond(), se[i].MaxBond())
		}
	}
	ge := kernel.GramFromStates(se, 0)
	gl := kernel.GramFromStates(sl, 0)
	for i := range ge {
		for j := range ge[i] {
			if math.Abs(ge[i][j]-gl[i][j]) > 1e-3 {
				t.Fatalf("kernel entry (%d,%d) drifted %v under 1e-6 budget", i, j, math.Abs(ge[i][j]-gl[i][j]))
			}
		}
	}
}
