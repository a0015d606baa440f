package experiments

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/svm"
)

// TableIIIParams configures artifact A7 (Table III): the ansatz-repetition
// (circuit depth) ablation at d=1, γ=1 on 50 features. Paper values:
// r ∈ {2,4,8,12,16,20}, 6 runs averaged, best-AUC regularisation per depth.
// Defaults keep the full depth grid with 3 runs on data size 240.
type TableIIIParams struct {
	Features int
	DataSize int
	Distance int
	Gamma    float64
	Depths   []int
	Runs     int
	Seed     int64
	CGrid    []float64
}

func (p TableIIIParams) withDefaults() TableIIIParams {
	if p.Features == 0 {
		p.Features = 50
	}
	if p.DataSize == 0 {
		p.DataSize = 240
	}
	if p.Distance == 0 {
		p.Distance = 1
	}
	if p.Gamma == 0 {
		p.Gamma = 1.0
	}
	if len(p.Depths) == 0 {
		p.Depths = []int{2, 4, 8, 12, 16, 20}
	}
	if p.Runs == 0 {
		p.Runs = 3
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if len(p.CGrid) == 0 {
		p.CGrid = svm.DefaultCGrid
	}
	return p
}

// TableIIIRow is one depth's averaged metrics, plus the kernel concentration
// statistics that explain the degradation (off-diagonal mean/variance).
type TableIIIRow struct {
	Depth         int
	Metrics       svm.Metrics
	Concentration kernel.Concentration
}

// TableIIIResult is the depth sweep.
type TableIIIResult struct {
	Params TableIIIParams
	Rows   []TableIIIRow
}

// RunTableIII executes the depth ablation.
func RunTableIII(p TableIIIParams) (*TableIIIResult, error) {
	p = p.withDefaults()
	full := dataset.GenerateElliptic(dataset.EllipticConfig{
		Features:   p.Features,
		NumIllicit: p.DataSize * 2,
		NumLicit:   p.DataSize * 2,
		Seed:       p.Seed,
	})
	res := &TableIIIResult{Params: p}
	for _, depth := range p.Depths {
		q := &kernel.Quantum{
			Ansatz: circuit.Ansatz{Qubits: p.Features, Layers: depth, Distance: p.Distance, Gamma: p.Gamma},
		}
		var conc kernel.Concentration
		met, err := averageRuns(full, p.DataSize, p.Features, p.Runs, p.Seed, func(train, test *dataset.Dataset) (svm.Metrics, error) {
			fit, err := fitQuantum(q, train, test, p.CGrid)
			if err != nil {
				return svm.Metrics{}, err
			}
			c := kernel.MeasureConcentration(fit.gram)
			conc.Mean += c.Mean
			conc.Var += c.Var
			return fit.met, nil
		})
		if err != nil {
			return nil, err
		}
		n := float64(p.Runs)
		res.Rows = append(res.Rows, TableIIIRow{
			Depth:         depth,
			Metrics:       met,
			Concentration: kernel.Concentration{Mean: conc.Mean / n, Var: conc.Var / n},
		})
	}
	return res, nil
}

// Table renders Table III (with the extra concentration columns that explain
// the paper's "no useful information is extracted" mechanism).
func (r *TableIIIResult) Table() *Table {
	t := &Table{Header: []string{"depth", "AUC", "Recall", "Precision", "Accuracy", "kernel mean", "kernel var"}}
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("%d", row.Depth),
			F3(row.Metrics.AUC), F3(row.Metrics.Recall),
			F3(row.Metrics.Precision), F3(row.Metrics.Accuracy),
			F(row.Concentration.Mean), F(row.Concentration.Var),
		)
	}
	return t
}

// ShallowBeatsDeep reports whether the shallowest depth's AUC exceeds the
// deepest's — the paper's Table III conclusion (C2.3).
func (r *TableIIIResult) ShallowBeatsDeep() bool {
	if len(r.Rows) < 2 {
		return false
	}
	return r.Rows[0].Metrics.AUC > r.Rows[len(r.Rows)-1].Metrics.AUC
}
