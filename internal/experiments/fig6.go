package experiments

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/kernel"
	"repro/internal/mps"
)

// Fig6Params configures artifact A2 (Fig. 6): memory required to store the
// MPS as the simulation progresses, for two circuit families of different
// interaction distance. Paper values: m=100, r=2, γ=1.0, d ∈ {6, 12}, 8
// samples each. Defaults scale to m=24, d ∈ {2, 4}, 8 samples, which keeps
// the paper's 1:2 distance ratio and truncation events in both families and
// runs in about 75 s on a 2-core Xeon VM. The larger distance sets the cost:
// at m=60, one d=4 row alone takes 10–60 s there (χ up to 407).
type Fig6Params struct {
	Qubits    int
	Layers    int
	Gamma     float64
	Distances []int
	Samples   int
	Seed      int64
}

func (p Fig6Params) withDefaults() Fig6Params {
	if p.Qubits == 0 {
		p.Qubits = 24
	}
	if p.Layers == 0 {
		p.Layers = 2
	}
	if p.Gamma == 0 {
		p.Gamma = 1.0
	}
	if len(p.Distances) == 0 {
		p.Distances = []int{2, 4}
	}
	if p.Samples == 0 {
		p.Samples = 8
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Fig6Series is the memory trace for one circuit family: for each progress
// checkpoint (percent of gates applied), the mean/min/max memory over
// samples — matching the thick line and shaded envelope of Fig. 6.
type Fig6Series struct {
	Distance    int
	ProgressPct []float64 // x-axis: % of gates applied
	MeanMiB     []float64
	MinMiB      []float64
	MaxMiB      []float64
	PeakMiB     float64
	Truncations int // gates whose ledger shows a bond-dimension drop
}

// Fig6Result holds one series per distance.
type Fig6Result struct {
	Params Fig6Params
	Series []Fig6Series
}

// RunFig6 simulates each circuit family with the memory ledger enabled, its
// samples in parallel through kernel.Quantum.States, and resamples the
// traces onto a common percentage grid.
func RunFig6(p Fig6Params) (*Fig6Result, error) {
	p = p.withDefaults()
	rows, err := scaledRows(p.Qubits, 2*p.Samples, 2*p.Samples, p.Seed)
	if err != nil {
		return nil, err
	}
	rows = rows[:p.Samples]

	const gridN = 100
	res := &Fig6Result{Params: p}
	for _, d := range p.Distances {
		ansatz := circuit.Ansatz{Qubits: p.Qubits, Layers: p.Layers, Distance: d, Gamma: p.Gamma}
		series := Fig6Series{Distance: d}
		q := &kernel.Quantum{Ansatz: ansatz, Config: mps.Config{RecordMemory: true}}
		states, err := q.States(rows)
		if err != nil {
			return nil, err
		}
		traces := make([][]float64, len(states))
		for k, st := range states {
			trace := make([]float64, len(st.Ledger))
			prevBond := 1
			for i, s := range st.Ledger {
				trace[i] = float64(s.Bytes) / (1 << 20)
				if s.MaxBond < prevBond {
					series.Truncations++
				}
				prevBond = s.MaxBond
			}
			traces[k] = trace
		}
		// Resample every trace onto a 0..100% grid and aggregate.
		series.ProgressPct = make([]float64, gridN+1)
		series.MeanMiB = make([]float64, gridN+1)
		series.MinMiB = make([]float64, gridN+1)
		series.MaxMiB = make([]float64, gridN+1)
		for g := 0; g <= gridN; g++ {
			series.ProgressPct[g] = float64(g)
			mn, mx, sum := 0.0, 0.0, 0.0
			for ti, tr := range traces {
				idx := int(float64(g) / float64(gridN) * float64(len(tr)-1))
				v := tr[idx]
				if ti == 0 || v < mn {
					mn = v
				}
				if ti == 0 || v > mx {
					mx = v
				}
				sum += v
			}
			series.MeanMiB[g] = sum / float64(len(traces))
			series.MinMiB[g] = mn
			series.MaxMiB[g] = mx
			if mx > series.PeakMiB {
				series.PeakMiB = mx
			}
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// Table renders the traces at decile checkpoints plus the peak — the
// tabular equivalent of Fig. 6's curves.
func (r *Fig6Result) Table() *Table {
	t := &Table{Header: []string{"progress %"}}
	for _, s := range r.Series {
		t.Header = append(t.Header,
			fmt.Sprintf("d=%d mean MiB", s.Distance),
			fmt.Sprintf("d=%d min", s.Distance),
			fmt.Sprintf("d=%d max", s.Distance),
		)
	}
	for g := 0; g <= 100; g += 10 {
		row := []string{fmt.Sprintf("%d", g)}
		for _, s := range r.Series {
			row = append(row, F(s.MeanMiB[g]), F(s.MinMiB[g]), F(s.MaxMiB[g]))
		}
		t.AddRow(row...)
	}
	return t
}
