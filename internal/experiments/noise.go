package experiments

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/mps"
)

// NoiseParams configures the truncation-noise study — the paper's stated
// future work ("more aggressive truncation may be deemed necessary for
// scalability... analysis of the noise induced by truncation would be
// necessary", section IV). The study sweeps the SVD truncation budget from
// the paper's noiseless 1e-16 up to aggressive values, measuring:
//
//   - the accumulated truncation error and final bond dimension (cost side);
//   - the worst-case deviation of kernel entries from the exact kernel;
//   - the downstream classification AUC (does learning survive the noise?).
type NoiseParams struct {
	Features int
	DataSize int
	Layers   int
	Distance int
	Gamma    float64
	Budgets  []float64
	Seed     int64
}

func (p NoiseParams) withDefaults() NoiseParams {
	if p.Features == 0 {
		p.Features = 16
	}
	if p.DataSize == 0 {
		p.DataSize = 80
	}
	if p.Layers == 0 {
		p.Layers = 2
	}
	if p.Distance == 0 {
		p.Distance = 3
	}
	if p.Gamma == 0 {
		p.Gamma = 0.8
	}
	if len(p.Budgets) == 0 {
		p.Budgets = []float64{1e-16, 1e-12, 1e-8, 1e-6, 1e-4, 1e-2}
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// NoisePoint is one budget's measurements.
type NoisePoint struct {
	Budget         float64
	AvgMaxChi      float64 // cost proxy: smaller budget ⇒ larger χ
	AvgTruncErr    float64 // mean accumulated Σ discarded s² per state
	MaxKernelDev   float64 // max |K_ij(budget) − K_ij(exact)|
	TestAUC        float64
	MeanFidelityLB float64 // mean lower bound 1 − ε on |⟨ideal|trunc⟩|²
}

// NoiseResult is the sweep.
type NoiseResult struct {
	Params NoiseParams
	Points []NoisePoint
}

// RunTruncationNoise executes the sweep. The reference kernel uses the
// paper's noiseless budget (1e-16): by equation (8) its error is at machine
// precision, while disabling truncation entirely would retain exactly-zero
// singular values and grow the bond dimension exponentially for no accuracy
// gain.
func RunTruncationNoise(p NoiseParams) (*NoiseResult, error) {
	p = p.withDefaults()
	full := dataset.GenerateElliptic(dataset.EllipticConfig{
		Features:   p.Features,
		NumIllicit: p.DataSize,
		NumLicit:   p.DataSize,
		Seed:       p.Seed,
	})
	train, test, err := dataset.PrepareSplit(full, p.DataSize, p.Features, p.Seed)
	if err != nil {
		return nil, err
	}
	ansatz := circuit.Ansatz{Qubits: p.Features, Layers: p.Layers, Distance: p.Distance, Gamma: p.Gamma}

	// Exact reference kernel.
	exactQ := &kernel.Quantum{Ansatz: ansatz, Config: mps.Config{TruncationBudget: 1e-16}}
	exactStates, err := exactQ.States(train.X)
	if err != nil {
		return nil, err
	}
	exactGram := kernel.GramFromStates(exactStates, 0)

	res := &NoiseResult{Params: p}
	for _, budget := range p.Budgets {
		q := &kernel.Quantum{Ansatz: ansatz, Config: mps.Config{TruncationBudget: budget}}
		fit, err := fitQuantum(q, train, test, nil)
		if err != nil {
			return nil, err
		}

		pt := NoisePoint{Budget: budget, TestAUC: fit.met.AUC}
		for _, s := range fit.states {
			pt.AvgMaxChi += float64(s.MaxBond())
			pt.AvgTruncErr += s.TruncationError
			pt.MeanFidelityLB += 1 - s.TruncationError
		}
		n := float64(len(fit.states))
		pt.AvgMaxChi /= n
		pt.AvgTruncErr /= n
		pt.MeanFidelityLB /= n
		for i, row := range fit.gram {
			for j, k := range row {
				if dev := math.Abs(k - exactGram[i][j]); dev > pt.MaxKernelDev {
					pt.MaxKernelDev = dev
				}
			}
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Table renders the sweep.
func (r *NoiseResult) Table() *Table {
	t := &Table{Header: []string{"budget", "avg χ", "avg Σs²", "max |ΔK|", "fidelity LB", "test AUC"}}
	for _, pt := range r.Points {
		t.AddRow(
			F(pt.Budget), F(pt.AvgMaxChi), F(pt.AvgTruncErr),
			F(pt.MaxKernelDev), F(pt.MeanFidelityLB), F3(pt.TestAUC),
		)
	}
	return t
}

// ChiReduction returns the ratio of bond dimension between the tightest and
// loosest budgets — the memory saving aggressive truncation buys.
func (r *NoiseResult) ChiReduction() float64 {
	if len(r.Points) < 2 {
		return 1
	}
	first, last := r.Points[0].AvgMaxChi, r.Points[len(r.Points)-1].AvgMaxChi
	if last == 0 {
		return 1
	}
	return first / last
}
