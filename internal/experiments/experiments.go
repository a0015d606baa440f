// Package experiments contains one runner per paper artifact (A1–A7),
// regenerating every figure and table of the evaluation section:
//
//	A1 / Fig. 7  — simulation time vs qubit count, per γ        (RunFig7)
//	A2 / Fig. 6  — memory evolution during simulation            (RunFig6)
//	A3 / Fig. 5  — serial/parallel crossover, + Table I          (RunFig5TableI)
//	A4 / Fig. 8  — distributed runtime breakdown                 (RunFig8)
//	A5 / F. 9–10 — train/test AUC vs features per data size      (RunFig9Fig10)
//	A6 / Tab. II — kernel comparison grid d×γ vs Gaussian        (RunTableII)
//	A7 / Tab. III— ansatz depth ablation                         (RunTableIII)
//
// plus the truncation-noise study the paper leaves as future work
// (RunTruncationNoise). Each runner takes a params struct whose zero value
// selects scaled-down defaults that finish on a laptop while preserving the
// paper's sweep structure; each params doc names the paper's values, and
// `qkernel repro <artifact> -paper` runs at them. Runners return plain
// row/series structs and know how to render themselves as the same tables
// the paper prints.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/mps"
	"repro/internal/svm"
)

// scaledRows generates perClass synthetic Elliptic-shaped rows of each label
// with the given feature count, draws a balanced subset of n of them and
// min-max scales it: the circuit inputs of the simulation-only runners
// (Figs. 5–8), which draw from Kaggle's data the same way in the paper.
func scaledRows(features, perClass, n int, seed int64) ([][]float64, error) {
	full := dataset.GenerateElliptic(dataset.EllipticConfig{
		Features:   features,
		NumIllicit: perClass,
		NumLicit:   perClass,
		Seed:       seed,
	})
	sub, err := full.BalancedSubset(n, seed)
	if err != nil {
		return nil, err
	}
	sc, err := dataset.FitScaler(sub)
	if err != nil {
		return nil, err
	}
	scaled, err := sc.Transform(sub)
	if err != nil {
		return nil, err
	}
	return scaled.X, nil
}

// quantumFit is a quantum-kernel SVM fitted on one train/test split.
type quantumFit struct {
	states []*mps.MPS  // simulated training states
	gram   [][]float64 // training Gram matrix
	model  *svm.Model
	met    svm.Metrics // held-out metrics of model
	bestC  float64
}

// fitQuantum simulates the train and test rows under q, builds the Gram and
// cross kernels from the states and keeps the SVM whose C from cgrid (nil =
// svm.DefaultCGrid) scores the best held-out AUC: the classification core of
// Figs. 9–10, Tables II–III and the truncation-noise study.
func fitQuantum(q *kernel.Quantum, train, test *dataset.Dataset, cgrid []float64) (*quantumFit, error) {
	trainStates, err := q.States(train.X)
	if err != nil {
		return nil, err
	}
	testStates, err := q.States(test.X)
	if err != nil {
		return nil, err
	}
	gram := kernel.GramFromStates(trainStates, 0)
	cross := kernel.CrossFromStates(testStates, trainStates, 0)
	model, met, bestC, err := svm.TrainBestC(gram, train.Y, cross, test.Y, cgrid, 0)
	if err != nil {
		return nil, err
	}
	return &quantumFit{states: trainStates, gram: gram, model: model, met: met, bestC: bestC}, nil
}

// averageRuns evaluates a kernel pipeline on runs seeded train/test splits of
// full (seeds seed, seed+100, …) and averages the resulting metrics (the
// paper's 6-sample averaging).
func averageRuns(full *dataset.Dataset, size, features, runs int, seed int64, eval func(train, test *dataset.Dataset) (svm.Metrics, error)) (svm.Metrics, error) {
	var acc svm.Metrics
	for r := 0; r < runs; r++ {
		train, test, err := dataset.PrepareSplit(full, size, features, seed+int64(100*r))
		if err != nil {
			return svm.Metrics{}, err
		}
		met, err := eval(train, test)
		if err != nil {
			return svm.Metrics{}, err
		}
		acc.Accuracy += met.Accuracy
		acc.Precision += met.Precision
		acc.Recall += met.Recall
		acc.AUC += met.AUC
	}
	n := float64(runs)
	acc.Accuracy /= n
	acc.Precision /= n
	acc.Recall /= n
	acc.AUC /= n
	return acc, nil
}

// Sample summarises repeated timing measurements the way the paper plots
// them: median with first and third quartiles (Fig. 5's error bars).
type Sample struct {
	Median, Q1, Q3 float64
	Count          int
}

// Summarize computes median/quartiles of a slice of seconds.
func Summarize(xs []float64) Sample {
	if len(xs) == 0 {
		return Sample{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		// Linear interpolation between closest ranks.
		pos := p * float64(len(s)-1)
		lo := int(pos)
		hi := lo + 1
		if hi >= len(s) {
			return s[len(s)-1]
		}
		frac := pos - float64(lo)
		return s[lo]*(1-frac) + s[hi]*frac
	}
	return Sample{Median: q(0.5), Q1: q(0.25), Q3: q(0.75), Count: len(s)}
}

// Seconds converts a duration to float seconds, the unit used in all tables.
func Seconds(d time.Duration) float64 { return d.Seconds() }

// Table is a minimal fixed-width text table writer shared by all runners, so
// `qkernel repro` prints results in the paper's row/column structure.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render returns the fixed-width rendering.
func (t *Table) Render() string {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (the artifact scripts of
// the paper emit results.csv files; ours do the same).
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cells := make([]string, len(t.Header))
	for i, h := range t.Header {
		cells[i] = esc(h)
	}
	b.WriteString(strings.Join(cells, ","))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		cells = cells[:0]
		for _, c := range r {
			cells = append(cells, esc(c))
		}
		b.WriteString(strings.Join(cells, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// F formats a float with sensible width for table cells.
func F(v float64) string { return fmt.Sprintf("%.4g", v) }

// F3 formats with 3 decimal places (classification metrics, as the paper).
func F3(v float64) string { return fmt.Sprintf("%.3f", v) }
