package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

// artifactNames lists what `qkernel repro` reproduces, in the paper's order.
const artifactNames = "fig5 | fig6 | fig7 | fig8 | fig9-10 | table2 | table3 | truncnoise"

// runRepro is the `qkernel repro <artifact> [-paper] [-csv path]` subcommand:
// run one artifact's runner from internal/experiments and print its tables,
// charts and summary lines. Without -paper the runner gets zero-value Params,
// its laptop-scale defaults; -paper selects the scale the paper reports.
// -csv also writes the artifact's primary table as CSV. Usage errors exit 2,
// a failed run exits 1.
func runRepro(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qkernel repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	paper := fs.Bool("paper", false, "run at the paper's scale instead of the laptop defaults")
	csvPath := fs.String("csv", "", "also write the artifact's primary table as CSV to this path")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: qkernel repro <%s> [-paper] [-csv path]\n", artifactNames)
		fs.PrintDefaults()
	}
	// The artifact may stand before or after the flags: parse up to it,
	// take it, then parse the rest.
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	name := fs.Arg(0)
	if err := fs.Parse(fs.Args()[1:]); err != nil {
		return parseExit(err)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "qkernel repro: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	_, run, err := reproPlan(name, *paper)
	if err != nil {
		fmt.Fprintln(stderr, "qkernel repro:", err)
		return 2
	}
	table, err := run(stdout)
	if err != nil {
		fmt.Fprintf(stderr, "qkernel repro %s: %v\n", name, err)
		return 1
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(table.CSV()), 0o644); err != nil {
			fmt.Fprintf(stderr, "qkernel repro %s: writing csv: %v\n", name, err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", *csvPath)
	}
	return 0
}

// parseExit maps a flag parse error to an exit status: -h is a success.
func parseExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// reproPlan returns the Params an artifact runs at and a run function that
// executes its runner, prints the results to w and returns the primary
// table for -csv.
func reproPlan(name string, paper bool) (params any, run func(w io.Writer) (*experiments.Table, error), err error) {
	switch name {
	case "fig5":
		var p experiments.Fig5Params
		if paper {
			p = experiments.Fig5Params{Qubits: 100, Distances: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}}
		}
		return p, func(w io.Writer) (*experiments.Table, error) {
			res, err := experiments.RunFig5TableI(p)
			if err != nil {
				return nil, err
			}
			fmt.Fprintln(w, "Fig. 5 — runtime scaling vs interaction distance")
			fmt.Fprintln(w, res.Fig5Table().Render())
			fmt.Fprintln(w, "Table I — bond dimension and memory per MPS")
			fmt.Fprintln(w, res.TableI().Render())
			if res.CrossoverDistance >= 0 {
				fmt.Fprintf(w, "crossover: parallel backend wins from d=%d (χ ≈ %.0f)\n",
					res.CrossoverDistance, res.CrossoverChi)
			} else {
				fmt.Fprintln(w, "crossover: not reached in this sweep (serial faster throughout)")
			}
			return res.Fig5Table(), nil
		}, nil

	case "fig6":
		var p experiments.Fig6Params
		if paper {
			p = experiments.Fig6Params{Qubits: 100, Distances: []int{6, 12}}
		}
		return p, func(w io.Writer) (*experiments.Table, error) {
			res, err := experiments.RunFig6(p)
			if err != nil {
				return nil, err
			}
			fmt.Fprintln(w, "Fig. 6 — MPS memory during simulation (MiB)")
			fmt.Fprintln(w, res.Table().Render())
			chart := &experiments.Chart{Title: "mean MPS memory (MiB) vs % of gates applied (log y)", LogY: true}
			for _, s := range res.Series {
				if err := chart.AddSeries(fmt.Sprintf("d=%d", s.Distance), s.ProgressPct, s.MeanMiB); err != nil {
					return nil, err
				}
			}
			fmt.Fprintln(w, chart.Render())
			for _, s := range res.Series {
				fmt.Fprintf(w, "d=%d: peak %.3f MiB, %d truncation-induced bond drops observed\n",
					s.Distance, s.PeakMiB, s.Truncations)
			}
			return res.Table(), nil
		}, nil

	case "fig7":
		var p experiments.Fig7Params
		if paper {
			p = experiments.Fig7Params{Distance: 6, Samples: 8}
		}
		return p, func(w io.Writer) (*experiments.Table, error) {
			res, err := experiments.RunFig7(p)
			if err != nil {
				return nil, err
			}
			fmt.Fprintln(w, "Fig. 7 — simulation time vs qubit count")
			fmt.Fprintln(w, res.Table().Render())
			chart := &experiments.Chart{Title: "simulation seconds vs qubits (log y)", LogY: true}
			for _, g := range res.Params.Gammas {
				var xs, ys []float64
				for _, pt := range res.Points {
					if pt.Gamma == g {
						xs = append(xs, float64(pt.Qubits))
						ys = append(ys, pt.AvgSimSecs)
					}
				}
				if err := chart.AddSeries(fmt.Sprintf("γ=%.1f", g), xs, ys); err != nil {
					return nil, err
				}
			}
			fmt.Fprintln(w, chart.Render())
			fmt.Fprintf(w, "slowest γ (strongest entanglement): %.1f\n", res.SlowestGamma())
			return res.Table(), nil
		}, nil

	case "fig8":
		var p experiments.Fig8Params
		if paper {
			for n, k := 400, 2; n <= 6400; n, k = 2*n, 2*k {
				p.Steps = append(p.Steps, experiments.Fig8Step{DataSize: n, Procs: k})
			}
		}
		return p, func(w io.Writer) (*experiments.Table, error) {
			res, err := experiments.RunFig8(p)
			if err != nil {
				return nil, err
			}
			fmt.Fprintln(w, "Fig. 8 — distributed Gram computation breakdown (round-robin over chan)")
			fmt.Fprintln(w, res.Table().Render())
			fmt.Fprintln(w, "extrapolations from measured per-op costs (paper section III-A):")
			for _, proj := range [][2]int{{6400, 32}, {64000, 320}, {64000, 640}} {
				fmt.Fprintf(w, "  %6d points on %3d processes → %v\n",
					proj[0], proj[1], res.Extrapolate(proj[0], proj[1]).Round(1e9))
			}
			return res.Table(), nil
		}, nil

	case "fig9-10":
		var p experiments.QMLParams
		if paper {
			p = experiments.QMLParams{SampleSizes: []int{300, 1500, 6400}}
		}
		return p, func(w io.Writer) (*experiments.Table, error) {
			res, err := experiments.RunFig9Fig10(p)
			if err != nil {
				return nil, err
			}
			fmt.Fprintln(w, "Figs. 9–10 — AUC vs features per data size (train | test)")
			fmt.Fprintln(w, res.Table().Render())
			return res.Table(), nil
		}, nil

	case "table2":
		var p experiments.TableIIParams
		if paper {
			p = experiments.TableIIParams{DataSize: 400, Runs: 6}
		}
		return p, func(w io.Writer) (*experiments.Table, error) {
			res, err := experiments.RunTableII(p)
			if err != nil {
				return nil, err
			}
			fmt.Fprintln(w, "Table II — SVM performance, quantum kernel grid vs Gaussian baseline")
			fmt.Fprintln(w, "(the highest-AUC row is marked with *)")
			fmt.Fprintln(w, res.Table().Render())
			if res.QuantumBeatsGaussian() {
				fmt.Fprintln(w, "observation: at least one quantum configuration beats the Gaussian baseline (paper C2.2)")
			} else {
				fmt.Fprintln(w, "observation: no quantum configuration beat the Gaussian baseline in this run")
			}
			return res.Table(), nil
		}, nil

	case "table3":
		var p experiments.TableIIIParams
		if paper {
			p = experiments.TableIIIParams{DataSize: 400, Runs: 6}
		}
		return p, func(w io.Writer) (*experiments.Table, error) {
			res, err := experiments.RunTableIII(p)
			if err != nil {
				return nil, err
			}
			fmt.Fprintln(w, "Table III — ansatz repetition (depth) effect on SVM performance")
			fmt.Fprintln(w, res.Table().Render())
			if res.ShallowBeatsDeep() {
				fmt.Fprintln(w, "observation: shallow circuits beat deep ones — kernel concentration at depth (paper C2.3)")
			}
			return res.Table(), nil
		}, nil

	case "truncnoise":
		if paper {
			return nil, nil, errors.New("truncnoise has no paper scale: the study is the paper's future work")
		}
		var p experiments.NoiseParams
		return p, func(w io.Writer) (*experiments.Table, error) {
			res, err := experiments.RunTruncationNoise(p)
			if err != nil {
				return nil, err
			}
			fmt.Fprintln(w, "Truncation-noise study (paper section IV future work)")
			fmt.Fprintln(w, res.Table().Render())
			fmt.Fprintf(w, "bond-dimension reduction across the sweep: %.2f×\n", res.ChiReduction())
			return res.Table(), nil
		}, nil
	}
	return nil, nil, fmt.Errorf("unknown artifact %q (want %s)", name, artifactNames)
}
