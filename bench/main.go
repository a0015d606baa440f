// Command bench is the repository's benchmark: four whole-path workloads
// (train → save → load → serve → HTTP predict), measured end to end with
// tracing off and layer by layer in a separate traced run. See README.md.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//	bench -seed N [-rounds R] [-out doc.json]              the whole suite
//	bench -compare a.json b.json                           verdict per metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
)

// runConfig is what one run is told from outside.
type runConfig struct {
	root     string // checkout root: holds BENCHMARK.json and bench/
	dir      string // scratch directory for model files, removed on exit
	seed     int64
	seconds  float64
	smoke    bool
	writeRef bool
}

// The serving stack narrates reloads at Info; keep a run's stderr for failures.
func init() { slog.SetLogLoggerLevel(slog.LevelWarn) }

func main() {
	var (
		run     runConfig
		name    = flag.String("workload", "", "run this one workload and print one JSON result line (the driver's form)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced replay")
		rounds  = flag.Int("rounds", 3, "suite: untraced runs per workload (round r uses seed+r)")
		out     = flag.String("out", "", "suite: also write the result document to this file")
		compare = flag.Bool("compare", false, "compare two result documents: bench -compare a.json b.json")
	)
	flag.StringVar(&run.root, "root", ".", "checkout root (the directory holding BENCHMARK.json)")
	flag.Int64Var(&run.seed, "seed", 1, "seed all inputs are generated from")
	flag.Float64Var(&run.seconds, "seconds", 0, "timed seconds per run (default: run_seconds of BENCHMARK.json)")
	flag.BoolVar(&run.smoke, "smoke", false, "8-qubit models, design assertions off: exercises every path and name quickly")
	flag.BoolVar(&run.writeRef, "write-ref", false, "regenerate bench/ref/<workload>.seed<N>.json from this run")
	flag.Parse()

	code, err := dispatch(run, *name, *trace, *rounds, *out, *compare, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func dispatch(run runConfig, name string, trace, rounds int, out string, compare bool, args []string) (int, error) {
	spec, err := loadSpec(run.root)
	if err != nil {
		return 0, err
	}
	if compare {
		if len(args) != 2 {
			return 0, fmt.Errorf("-compare takes two result documents")
		}
		return compareDocs(spec, args[0], args[1])
	}
	if run.seconds <= 0 {
		run.seconds = float64(spec.RunSeconds)
	}
	if name == "" {
		return runSuite(spec, run, rounds, out)
	}

	w, err := findWorkload(name)
	if err != nil {
		return 0, err
	}
	if run.smoke {
		w = w.smoke()
	}
	work := filepath.Join(run.root, ".bench_build", "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return 0, err
	}
	if run.dir, err = os.MkdirTemp(work, w.name+"-"); err != nil {
		return 0, err
	}
	defer os.RemoveAll(run.dir)

	var res *result
	if trace == 0 {
		res, err = runEndToEnd(w, run)
	} else {
		res, err = runTraced(w, run)
	}
	if err != nil {
		return 0, err
	}
	return report(res), nil
}

// report prints a run's metrics by name and then, as the last line, the one
// JSON object the driver reads. It returns the process exit code.
func report(res *result) int {
	res.Correct = res.Failed == 0
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Printf("  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", p)
	}
	fmt.Printf("  failed_share %d/%d\n", res.Failed, res.Attempted)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
