package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/conformal/sdt"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/svm"
)

// runTrain is the `qkernel train` subcommand: fit through the core pipeline
// (Gram → C selection → SVM) and persist the trained model — ansatz options,
// SVM, training rows and the retained training states — with core's
// versioned codec, ready for `qkernel serve`.
func runTrain(args []string) int {
	fs := flag.NewFlagSet("qkernel train", flag.ExitOnError)
	var df dataFlags
	df.register(fs)
	distance := fs.Int("d", 1, "interaction distance")
	layers := fs.Int("layers", 2, "ansatz layers r")
	gamma := fs.Float64("gamma", 0.5, "kernel bandwidth γ")
	procs := fs.Int("procs", 4, "simulated distributed processes")
	strategyName := fs.String("strategy", "round-robin", "round-robin | no-messaging")
	var wf dist.WireFlags
	wf.Register(fs)
	cacheMB := fs.Int("cache-mb", 256, "χ-aware simulated-state cache budget in MiB (0 disables)")
	cFlag := fs.Float64("c", 0, "SVM box constraint (0 sweeps the paper's grid)")
	calibFrac := fs.Float64("calib-frac", 0, "fraction of training rows held out for conformal calibration (0 disables, max 0.5)")
	alpha := fs.Float64("alpha", 0, "conformal miscoverage level α (default 0.1 when -calib-frac is set)")
	out := fs.String("out", "", "write the trained model here (required)")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON of the run (load in Perfetto / chrome://tracing)")
	var lf obs.LogFlags
	lf.Register(fs)
	_ = fs.Parse(args)
	lf.Setup()
	if *out == "" {
		return fail(fmt.Errorf("train: -out is required"))
	}

	strategy, err := dist.ParseStrategy(*strategyName)
	if err != nil {
		return fail(err)
	}
	transport, err := wf.Build()
	if err != nil {
		return fail(err)
	}
	train, test, err := df.split()
	if err != nil {
		return fail(err)
	}

	cacheBytes := int64(-1)
	if *cacheMB > 0 {
		cacheBytes = int64(*cacheMB) << 20
	}
	fw, err := core.New(core.Options{
		Features: df.features, Layers: *layers, Distance: *distance, Gamma: *gamma,
		C: *cFlag, Procs: *procs, Strategy: strategy, Transport: transport, CacheBytes: cacheBytes,
		CalibFrac: *calibFrac, Alpha: *alpha,
	})
	if err != nil {
		return fail(err)
	}

	// With -trace, the whole run is recorded under one trace: the fit span
	// tree (gram → per-rank → per-row/cache spans) and the held-out
	// evaluation nest under the root, and the tree is written as Chrome
	// trace-event JSON on the way out.
	ctx := context.Background()
	var tr *obs.Trace
	if *tracePath != "" {
		tr = obs.NewTrace(obs.NewID(), "qkernel train")
		ctx = obs.ContextWithSpan(ctx, tr.Root())
	}

	t0 := time.Now()
	model, report, err := fw.FitCtx(ctx, train.X, train.Y)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("fit (%s over %s, %d procs): wall %v (sim %v, inner %v, comm %v), best C=%.2f, train AUC %.3f, %d support vectors\n",
		strategy, dist.TransportName(transport), *procs, report.GramWall.Round(time.Millisecond),
		report.SimWall.Round(time.Millisecond), report.InnerWall.Round(time.Millisecond),
		report.CommWall.Round(time.Millisecond), report.BestC, report.TrainAUC, report.SupportVecs)
	if model.Calibrated() {
		fmt.Printf("kept all %d proper-training rows (calibrated models are not pruned)\n", len(model.TrainX))
	} else {
		fmt.Printf("kept %d of %d training rows (α ≠ 0)\n", len(model.TrainX), train.Len())
	}
	if rc := report.RowCosts; rc.Count > 0 {
		fmt.Printf("row costs: %d rows simulated, min %v / mean %v / max %v, total %v\n",
			rc.Count, rc.Min.Round(time.Microsecond), rc.Mean.Round(time.Microsecond),
			rc.Max.Round(time.Microsecond), rc.Total.Round(time.Millisecond))
	}
	if report.Calibrated {
		cc := report.CalibCoverage
		fmt.Printf("calibration: %d held-out rows at α=%.2f — coverage %.3f, avg set size %.2f, abstain %.1f%%, outlier %.1f%%\n",
			report.CalibRows, report.Alpha, cc.Coverage, cc.AvgSetSize, 100*cc.AbstainRate, 100*cc.OutlierRate)
		if report.SDTValid {
			s := report.SDT
			fmt.Printf("SDT (confidence vs correctness, calibration rows): hit %.3f  false-alarm %.3f  d' %.2f  type-2 AUC %.3f\n",
				s.HitRate, s.FalseAlarmRate, s.DPrime, s.AUC)
		}
	}

	if test.Len() > 0 {
		// One cross-kernel pass covers both the point metrics and — on a
		// calibrated model — the conformal coverage and SDT summaries.
		scores, err := fw.PredictCtx(ctx, model, test.X)
		if err != nil {
			return fail(err)
		}
		met, err := svm.Evaluate(scores, test.Y)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("held-out: AUC %.3f  recall %.3f  precision %.3f  accuracy %.3f\n",
			met.AUC, met.Recall, met.Precision, met.Accuracy)
		if model.Calibrated() {
			cov, err := model.Conformal.Coverage(scores, test.Y)
			if err != nil {
				return fail(err)
			}
			fmt.Printf("held-out conformal: coverage %.3f (target ≥ %.2f), avg set size %.2f, abstain %.1f%%, outlier %.1f%%\n",
				cov.Coverage, 1-model.Conformal.Alpha, cov.AvgSetSize, 100*cov.AbstainRate, 100*cov.OutlierRate)
			preds := model.Conformal.PredictBatch(scores)
			labels := make([]int, len(preds))
			conf := make([]float64, len(preds))
			for i, pr := range preds {
				labels[i], conf[i] = pr.Label, pr.Confidence
			}
			if s, err := sdt.FromPredictions(labels, conf, test.Y); err == nil {
				fmt.Printf("held-out SDT: hit %.3f  false-alarm %.3f  d' %.2f  type-2 AUC %.3f\n",
					s.HitRate, s.FalseAlarmRate, s.DPrime, s.AUC)
			} else if !errors.Is(err, sdt.ErrDegenerate) {
				return fail(err)
			}
		}
	}

	if tr != nil {
		tr.Root().End()
		f, err := os.Create(*tracePath)
		if err != nil {
			return fail(fmt.Errorf("trace: %w", err))
		}
		if err := obs.WriteChrome(f, tr); err != nil {
			f.Close()
			return fail(fmt.Errorf("trace: %w", err))
		}
		if err := f.Close(); err != nil {
			return fail(fmt.Errorf("trace: %w", err))
		}
		fmt.Printf("trace: wrote %s (%d events) — load in Perfetto or chrome://tracing\n",
			*tracePath, len(obs.ChromeEvents(tr)))
	}

	if err := model.Save(*out); err != nil {
		return fail(err)
	}
	fi, err := os.Stat(*out)
	if err != nil {
		return fail(err)
	}
	states := "no retained states (re-simulated at serve time)"
	if model.States != nil {
		states = fmt.Sprintf("%d retained training states", len(model.States))
	}
	fmt.Printf("saved %s (%.1f KiB, %s) in %v total\n",
		*out, float64(fi.Size())/1024, states, time.Since(t0).Round(time.Millisecond))
	return 0
}

// dataFlags bundles train's dataset-selection flags.
type dataFlags struct {
	size     int
	features int
	seed     int64
	dataPath string
	labelCol int
	header   bool
}

func (d *dataFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&d.size, "size", 200, "balanced sample size")
	fs.IntVar(&d.features, "features", 50, "feature count (qubits)")
	fs.Int64Var(&d.seed, "seed", 1, "data seed")
	fs.StringVar(&d.dataPath, "data", "", "optional CSV dataset (otherwise synthetic)")
	fs.IntVar(&d.labelCol, "label-col", 0, "label column index in the CSV")
	fs.BoolVar(&d.header, "header", false, "CSV has a header row")
}

// split materialises the configured dataset and performs the paper's
// preprocessing split, narrating what it loaded.
func (d *dataFlags) split() (train, test *dataset.Dataset, err error) {
	var full *dataset.Dataset
	if d.dataPath != "" {
		full, err = dataset.LoadCSVFile(d.dataPath, d.labelCol, d.header)
		if err != nil {
			return nil, nil, err
		}
		if full.Features() < d.features {
			return nil, nil, fmt.Errorf("CSV has %d features, requested %d", full.Features(), d.features)
		}
		fmt.Printf("dataset: %s — %d samples (%d illicit / %d licit), %d features\n",
			d.dataPath, full.Len(), full.CountLabel(dataset.Illicit), full.CountLabel(dataset.Licit), full.Features())
	} else {
		fmt.Printf("dataset: synthetic Elliptic-shaped, %d samples balanced, %d features\n", d.size, d.features)
		full = dataset.GenerateElliptic(dataset.EllipticConfig{Features: d.features, NumIllicit: d.size, NumLicit: d.size, Seed: d.seed})
	}
	train, test, err = dataset.PrepareSplit(full, d.size, d.features, d.seed)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("split: %d train / %d test\n", train.Len(), test.Len())
	return train, test, nil
}
