// Fraud detection end-to-end: the paper's full pipeline on the synthetic
// Elliptic-shaped dataset — balanced down-selection, preprocessing into the
// (0,2) interval, distributed quantum-kernel Gram computation with the
// round-robin strategy, SVM training with a regularisation sweep, a
// comparison against the Gaussian-kernel baseline, and a calibrated triage
// pass that auto-decides confident rows and routes abstentions to a review
// queue.
//
// Run with: go run ./examples/fraud_detection
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/kernel"
	"repro/internal/statecache"
	"repro/internal/svm"
)

func main() {
	const (
		features = 30
		size     = 160 // balanced: 80 illicit + 80 licit
		procs    = 4
	)
	cacheMB := flag.Int("cache-mb", 128, "χ-aware simulated-state cache budget in MiB (0 disables)")
	flag.Parse()

	fmt.Println("== data ==")
	full := dataset.GenerateElliptic(dataset.EllipticConfig{
		Features:   features,
		NumIllicit: size,
		NumLicit:   3 * size, // imbalanced source, like the real Elliptic set
		Seed:       7,
	})
	fmt.Printf("source: %d samples (%d illicit / %d licit), %d features\n",
		full.Len(), full.CountLabel(dataset.Illicit), full.CountLabel(dataset.Licit), full.Features())

	train, test, err := dataset.PrepareSplit(full, size, features, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prepared: %d train / %d test, features rescaled to (0,2)\n\n", train.Len(), test.Len())

	fmt.Println("== quantum kernel (distributed round-robin) ==")
	q := &kernel.Quantum{
		Ansatz: circuit.Ansatz{Qubits: features, Layers: 2, Distance: 1, Gamma: 0.5},
	}
	if *cacheMB > 0 {
		q.Cache = statecache.New(int64(*cacheMB) << 20)
	}
	t0 := time.Now()
	gramRes, err := dist.ComputeGram(q, train.X, dist.Options{Procs: procs, Strategy: dist.RoundRobin})
	if err != nil {
		log.Fatal(err)
	}
	sim, inner, comm := gramRes.MaxPhaseTimes()
	fmt.Printf("Gram on %d processes: wall %v (sim %v | inner %v | comm %v), %.2f MiB exchanged\n",
		len(gramRes.Procs), gramRes.Wall.Round(time.Millisecond), sim.Round(time.Millisecond),
		inner.Round(time.Millisecond), comm.Round(time.Millisecond), float64(gramRes.TotalBytes())/(1<<20))

	// Inference reuses the training states retained by the Gram run:
	// zero training-set re-simulation, zero communication.
	cross, err := q.CrossStates(test.X, gramRes.States, nil)
	if err != nil {
		log.Fatal(err)
	}
	if q.Cache != nil {
		s := q.Cache.Stats()
		fmt.Printf("state cache: %d hits / %d misses, %.1f MiB of %.0f MiB resident\n",
			s.Hits, s.Misses, float64(s.Bytes)/(1<<20), float64(s.Budget)/(1<<20))
	}
	_, qMet, qC, err := svm.TrainBestC(gramRes.Gram, train.Y, cross, test.Y, nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("quantum SVM (best C=%.2f): AUC %.3f  recall %.3f  precision %.3f  accuracy %.3f\n",
		qC, qMet.AUC, qMet.Recall, qMet.Precision, qMet.Accuracy)
	fmt.Printf("pipeline elapsed: %v\n\n", time.Since(t0).Round(time.Millisecond))

	fmt.Println("== Gaussian baseline (paper eq. 9) ==")
	g := kernel.NewGaussianFromData(train)
	_, gMet, gC, err := svm.TrainBestC(g.Gram(train.X), train.Y, g.Cross(test.X, train.X), test.Y, nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gaussian SVM (α=%.4f, best C=%.2f): AUC %.3f  recall %.3f  precision %.3f  accuracy %.3f\n",
		g.Alpha, gC, gMet.AUC, gMet.Recall, gMet.Precision, gMet.Accuracy)

	fmt.Println()
	if qMet.AUC > gMet.AUC {
		fmt.Println("result: quantum kernel beats the Gaussian baseline on this draw (paper C2.2)")
	} else {
		fmt.Println("result: Gaussian baseline wins on this draw — try γ ∈ {0.5, 1.0} or more data")
	}

	// A production fraud desk can't act on every raw score: calibrated
	// prediction sets split the traffic into auto-decided rows (singleton set,
	// confidence > 1−α) and a review queue (ambiguous or outlier rows) with a
	// distribution-free coverage guarantee on the sets.
	fmt.Println("\n== calibrated triage (split conformal, α=0.1) ==")
	cacheBytes := int64(-1)
	if *cacheMB > 0 {
		cacheBytes = int64(*cacheMB) << 20
	}
	fw, err := core.New(core.Options{
		Features: features, Layers: 2, Distance: 1, Gamma: 0.5,
		C: qC, Procs: procs, CacheBytes: cacheBytes,
		CalibFrac: 0.25, Alpha: 0.1,
	})
	if err != nil {
		log.Fatal(err)
	}
	calModel, calReport, err := fw.Fit(train.X, train.Y)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated on %d held-out rows: coverage %.3f, abstain %.1f%%\n",
		calReport.CalibRows, calReport.CalibCoverage.Coverage, 100*calReport.CalibCoverage.AbstainRate)
	if calReport.SDTValid {
		fmt.Printf("SDT on calibration rows: d' %.2f, type-2 AUC %.3f (does confidence track correctness?)\n",
			calReport.SDT.DPrime, calReport.SDT.AUC)
	}

	preds, err := fw.PredictSets(calModel, test.X)
	if err != nil {
		log.Fatal(err)
	}
	var reviewQueue []int
	auto, autoCorrect, covered := 0, 0, 0
	for i, p := range preds {
		if p.Covers(test.Y[i]) {
			covered++
		}
		if p.Abstain || p.Outlier {
			reviewQueue = append(reviewQueue, i)
			continue
		}
		auto++
		if p.Label == test.Y[i] {
			autoCorrect++
		}
	}
	fmt.Printf("test coverage: %.3f (guaranteed ≥ 0.90 in expectation)\n", float64(covered)/float64(len(preds)))
	if auto > 0 {
		fmt.Printf("auto-decided: %d/%d rows, accuracy %.3f\n", auto, len(preds), float64(autoCorrect)/float64(auto))
	}
	fmt.Printf("review queue: %d rows routed to analysts\n", len(reviewQueue))
	for n, i := range reviewQueue {
		if n == 3 {
			fmt.Printf("  … and %d more\n", len(reviewQueue)-3)
			break
		}
		p := preds[i]
		kind := "ambiguous"
		if p.Outlier {
			kind = "outlier"
		}
		fmt.Printf("  row %d: %s — p(illicit)=%.3f p(licit)=%.3f confidence %.3f\n",
			i, kind, p.PPos, p.PNeg, p.Confidence)
	}
}
