// Command qkernel is the end-to-end tool around the quantum-kernel
// framework. It has three modes:
//
//	qkernel [flags]        — legacy one-shot run: generate (or load) a
//	                         dataset, train with a chosen ansatz and
//	                         distribution strategy, report metrics.
//	qkernel train [flags]  — train through the core pipeline and persist the
//	                         model (-out model.bin) for serving.
//	qkernel serve [flags]  — load a persisted model and serve predictions
//	                         over HTTP with micro-batched kernel rows.
//
// The one-shot mode keeps its original flags:
//
//	qkernel [-size 200] [-features 50] [-d 1] [-layers 2] [-gamma 0.5]
//	        [-procs 4] [-strategy round-robin] [-baseline] [-cache-mb 256]
//	        [-transport chan] [-wire-latency-us 0] [-wire-mbps 0]
//	        [-data file.csv] [-label-col 0] [-save model.json]
//
// -transport selects the wire behind the distribution strategies: chan
// (in-process channels, the default), sim (the chan wire with a per-message
// latency/bandwidth/jitter cost model — tune it with -wire-latency-us,
// -wire-mbps and -wire-jitter-us) or tcp (real loopback TCP sockets). The
// kernel matrices are identical on every transport; only the communication
// accounting changes.
//
// Every shard receive in a distributed exchange is bounded by a deadline
// (dist.DefaultDeadline). A shard that never arrives, or a peer whose
// connection breaks, fails the run with a typed error naming the rank.
//
// With -data, samples are loaded from CSV (label column selectable; the
// Kaggle Elliptic export works directly) instead of the synthetic
// generator. With -save, the trained SVM is written as JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/circuit"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/statecache"
	"repro/internal/svm"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "train":
			os.Exit(runTrain(os.Args[2:]))
		case "serve":
			os.Exit(runServe(os.Args[2:]))
		case "help":
			// The one-shot flag set's Usage names the subcommands too (as do
			// plain -h/--help, which fall through to it below).
			os.Exit(runLegacy([]string{"-h"}))
		}
	}
	os.Exit(runLegacy(os.Args[1:]))
}

// dataFlags bundles the dataset-selection flags shared by the one-shot run
// and the train subcommand.
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

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "qkernel:", err)
	return 1
}

// runLegacy is the original one-shot pipeline: train, evaluate, report.
func runLegacy(args []string) int {
	fs := flag.NewFlagSet("qkernel", flag.ExitOnError)
	var df dataFlags
	df.register(fs)
	distance := fs.Int("d", 1, "interaction distance")
	layers := fs.Int("layers", 2, "ansatz layers r")
	gamma := fs.Float64("gamma", 0.5, "kernel bandwidth γ")
	procs := fs.Int("procs", 4, "simulated distributed processes")
	strategyName := fs.String("strategy", "round-robin", "round-robin | no-messaging")
	var wf dist.WireFlags
	wf.Register(fs)
	baseline := fs.Bool("baseline", false, "also train the Gaussian-kernel baseline")
	cacheMB := fs.Int("cache-mb", 256, "χ-aware simulated-state cache budget in MiB (0 disables)")
	savePath := fs.String("save", "", "write the trained SVM model as JSON")
	var lf obs.LogFlags
	lf.Register(fs)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: qkernel [flags]        — one-shot run: train, evaluate, report (flags below)")
		fmt.Fprintln(os.Stderr, "       qkernel train [flags]  — train and persist a model ('qkernel train -h')")
		fmt.Fprintln(os.Stderr, "       qkernel serve [flags]  — serve a persisted model over HTTP ('qkernel serve -h')")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	lf.Setup()

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

	q := &kernel.Quantum{
		Ansatz: circuit.Ansatz{Qubits: df.features, Layers: *layers, Distance: *distance, Gamma: *gamma},
	}
	if *cacheMB > 0 {
		q.Cache = statecache.New(int64(*cacheMB) << 20)
		if strategy == dist.NoMessaging {
			fmt.Println("note: the state cache dedupes no-messaging's redundant simulations; pass -cache-mb 0 to measure the pure compute-for-communication trade-off")
		}
	}
	distOpts := dist.Options{Procs: *procs, Strategy: strategy, Transport: transport}
	t0 := time.Now()
	gramRes, err := dist.ComputeGram(q, train.X, distOpts)
	if err != nil {
		return fail(fmt.Errorf("training kernel: %w", err))
	}
	sim, inner, comm := gramRes.MaxPhaseTimes()
	fmt.Printf("train Gram (%s over %s, %d procs): wall %v (sim %v, inner %v, comm %v, %.1f MiB sent)\n",
		strategy, dist.TransportName(transport), len(gramRes.Procs), gramRes.Wall.Round(time.Millisecond),
		sim.Round(time.Millisecond), inner.Round(time.Millisecond), comm.Round(time.Millisecond),
		float64(gramRes.TotalBytes())/(1<<20))

	// The retained training states make the inference kernel
	// communication-free: only the test rows are simulated.
	crossRes, err := dist.ComputeCrossStates(q, test.X, gramRes.States, distOpts)
	if err != nil {
		return fail(fmt.Errorf("inference kernel: %w", err))
	}
	if q.Cache != nil {
		s := q.Cache.Stats()
		fmt.Printf("state cache: %d/%d hits (%.0f%%), %d resident states, %.1f/%.0f MiB used, %d evictions\n",
			s.Hits, s.Hits+s.Misses, 100*s.HitRate(), s.Entries,
			float64(s.Bytes)/(1<<20), float64(s.Budget)/(1<<20), s.Evictions)
	}

	model, met, bestC, err := svm.TrainBestC(gramRes.Gram, train.Y, crossRes.Gram, test.Y, nil, 0)
	if err != nil {
		return fail(fmt.Errorf("training svm: %w", err))
	}
	if *savePath != "" {
		blob, err := json.MarshalIndent(model, "", "  ")
		if err != nil {
			return fail(fmt.Errorf("encoding model: %w", err))
		}
		if err := os.WriteFile(*savePath, blob, 0o644); err != nil {
			return fail(fmt.Errorf("saving model: %w", err))
		}
		fmt.Println("saved model to", *savePath)
	}
	fmt.Printf("quantum kernel (d=%d, r=%d, γ=%.2f), best C=%.2f: AUC %.3f  recall %.3f  precision %.3f  accuracy %.3f\n",
		*distance, *layers, *gamma, bestC, met.AUC, met.Recall, met.Precision, met.Accuracy)
	fmt.Printf("total elapsed: %v\n", time.Since(t0).Round(time.Millisecond))

	if *baseline {
		g := kernel.NewGaussianFromData(train)
		_, gmet, gC, err := svm.TrainBestC(g.Gram(train.X), train.Y, g.Cross(test.X, train.X), test.Y, nil, 0)
		if err != nil {
			return fail(fmt.Errorf("gaussian baseline: %w", err))
		}
		fmt.Printf("gaussian baseline (α=%.4f), best C=%.2f: AUC %.3f  recall %.3f  precision %.3f  accuracy %.3f\n",
			g.Alpha, gC, gmet.AUC, gmet.Recall, gmet.Precision, gmet.Accuracy)
	}
	return 0
}
