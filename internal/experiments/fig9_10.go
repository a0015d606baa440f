package experiments

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/svm"
)

// QMLParams configures artifact A5 (Figs. 9–10): train- and test-set AUC of
// the quantum-kernel SVM as the number of features and the data-set size
// grow. Paper values: sizes {300, 1500, 6400} × features {15, 50, 100, 165},
// d=1, r=2, γ=0.1, C swept over [0.01, 4]. Defaults scale sizes to
// {100, 300, 800}; the claims under test — test AUC improves with features
// at the largest size, the smallest size overfits — are preserved.
type QMLParams struct {
	SampleSizes []int
	FeatureGrid []int
	Layers      int
	Distance    int
	Gamma       float64
	Seed        int64
	CGrid       []float64
}

func (p QMLParams) withDefaults() QMLParams {
	if len(p.SampleSizes) == 0 {
		p.SampleSizes = []int{100, 300, 800}
	}
	if len(p.FeatureGrid) == 0 {
		p.FeatureGrid = []int{15, 50, 100, 165}
	}
	if p.Layers == 0 {
		p.Layers = 2
	}
	if p.Distance == 0 {
		p.Distance = 1
	}
	if p.Gamma == 0 {
		p.Gamma = 0.1
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if len(p.CGrid) == 0 {
		p.CGrid = svm.DefaultCGrid
	}
	return p
}

// QMLPoint is one (size, features) cell: best-over-C train and test AUC.
type QMLPoint struct {
	SampleSize int
	Features   int
	TrainAUC   float64 // Fig. 9
	TestAUC    float64 // Fig. 10
	BestC      float64
	TestModel  svm.Metrics
}

// QMLResult is the full grid.
type QMLResult struct {
	Params QMLParams
	Points []QMLPoint
}

// RunFig9Fig10 executes the scaling study: for each cell, prepare a balanced
// split, build the quantum Gram and cross kernels, sweep C picking the best
// test AUC (the paper's per-regularisation selection), and also record the
// train AUC of that model.
func RunFig9Fig10(p QMLParams) (*QMLResult, error) {
	p = p.withDefaults()
	maxF := 0
	for _, f := range p.FeatureGrid {
		if f > maxF {
			maxF = f
		}
	}
	maxN := 0
	for _, n := range p.SampleSizes {
		if n > maxN {
			maxN = n
		}
	}
	full := dataset.GenerateElliptic(dataset.EllipticConfig{
		Features:   maxF,
		NumIllicit: maxN,
		NumLicit:   maxN,
		Seed:       p.Seed,
	})

	res := &QMLResult{Params: p}
	for _, size := range p.SampleSizes {
		for _, feats := range p.FeatureGrid {
			pt, err := runQMLCell(full, size, feats, p)
			if err != nil {
				return nil, fmt.Errorf("experiments: size=%d features=%d: %w", size, feats, err)
			}
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

func runQMLCell(full *dataset.Dataset, size, feats int, p QMLParams) (QMLPoint, error) {
	pt := QMLPoint{SampleSize: size, Features: feats}
	train, test, err := dataset.PrepareSplit(full, size, feats, p.Seed)
	if err != nil {
		return pt, err
	}
	q := &kernel.Quantum{
		Ansatz: circuit.Ansatz{Qubits: feats, Layers: p.Layers, Distance: p.Distance, Gamma: p.Gamma},
	}
	fit, err := fitQuantum(q, train, test, p.CGrid)
	if err != nil {
		return pt, err
	}
	pt.TestAUC = fit.met.AUC
	pt.TestModel = fit.met
	pt.BestC = fit.bestC
	// Train AUC of the selected model (Fig. 9: "how well the trained SVM
	// predicts the correct labels of the training data set").
	trainScores, err := fit.model.DecisionBatch(fit.gram)
	if err != nil {
		return pt, err
	}
	trainAUC, err := svm.AUC(trainScores, train.Y)
	if err != nil {
		return pt, err
	}
	pt.TrainAUC = trainAUC
	return pt, nil
}

// Table renders the grid with one row per feature count and one column pair
// (train/test AUC) per sample size — Figs. 9 and 10 in tabular form.
func (r *QMLResult) Table() *Table {
	t := &Table{Header: []string{"features"}}
	for _, n := range r.Params.SampleSizes {
		t.Header = append(t.Header,
			fmt.Sprintf("N=%d train AUC", n),
			fmt.Sprintf("N=%d test AUC", n),
		)
	}
	for _, f := range r.Params.FeatureGrid {
		row := []string{fmt.Sprintf("%d", f)}
		for _, n := range r.Params.SampleSizes {
			for _, pt := range r.Points {
				if pt.Features == f && pt.SampleSize == n {
					row = append(row, F3(pt.TrainAUC), F3(pt.TestAUC))
				}
			}
		}
		t.AddRow(row...)
	}
	return t
}

// TestAUCAt looks up the test AUC for a cell (-1 if absent).
func (r *QMLResult) TestAUCAt(size, feats int) float64 {
	for _, pt := range r.Points {
		if pt.SampleSize == size && pt.Features == feats {
			return pt.TestAUC
		}
	}
	return -1
}
