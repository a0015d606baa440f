package experiments

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/mps"
)

// Fig7Params configures artifact A1 (Fig. 7): simulation time for circuits
// with varying qubit (feature) count, one series per γ. Paper values: r=2,
// d=6, γ ∈ {0.1, 0.5, 1.0}, m up to 165, 8 samples per point. Defaults keep
// the same γ series and m grid up to 165 but d=4 and 4 samples so the sweep
// stays fast; the claim under test (manageable, near-polynomial scaling in
// m, with γ=0.5 slowest) is preserved.
type Fig7Params struct {
	QubitGrid []int
	Layers    int
	Distance  int
	Gammas    []float64
	Samples   int
	Seed      int64
}

func (p Fig7Params) withDefaults() Fig7Params {
	if len(p.QubitGrid) == 0 {
		p.QubitGrid = []int{15, 40, 65, 90, 115, 140, 165}
	}
	if p.Layers == 0 {
		p.Layers = 2
	}
	if p.Distance == 0 {
		p.Distance = 4
	}
	if len(p.Gammas) == 0 {
		p.Gammas = []float64{0.1, 0.5, 1.0}
	}
	if p.Samples == 0 {
		p.Samples = 4
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Fig7Point is one (γ, m) cell: average simulation seconds and the average
// peak bond dimension reached.
type Fig7Point struct {
	Gamma      float64
	Qubits     int
	AvgSimSecs float64
	AvgMaxChi  float64
}

// Fig7Result is the full sweep.
type Fig7Result struct {
	Params Fig7Params
	Points []Fig7Point
}

// RunFig7 executes the qubit-scaling sweep. Data rows come from the
// synthetic Elliptic set at full width; each qubit count m uses the first m
// features, matching the paper's random-row initialisation.
func RunFig7(p Fig7Params) (*Fig7Result, error) {
	p = p.withDefaults()
	maxQ := 0
	for _, q := range p.QubitGrid {
		if q > maxQ {
			maxQ = q
		}
	}
	rows, err := scaledRows(maxQ, 2*p.Samples, 2*p.Samples, p.Seed)
	if err != nil {
		return nil, err
	}

	res := &Fig7Result{Params: p}
	for _, gamma := range p.Gammas {
		for _, m := range p.QubitGrid {
			if p.Distance >= m {
				return nil, fmt.Errorf("experiments: distance %d ≥ qubits %d", p.Distance, m)
			}
			ansatz := circuit.Ansatz{Qubits: m, Layers: p.Layers, Distance: p.Distance, Gamma: gamma}
			var secs, chi float64
			for s := 0; s < p.Samples; s++ {
				x := rows[s][:m]
				c, err := ansatz.BuildRouted(x)
				if err != nil {
					return nil, err
				}
				st := mps.NewZeroState(m, mps.Config{})
				t0 := time.Now()
				if err := st.ApplyCircuit(c); err != nil {
					return nil, err
				}
				secs += time.Since(t0).Seconds()
				chi += float64(st.MaxBond())
			}
			res.Points = append(res.Points, Fig7Point{
				Gamma:      gamma,
				Qubits:     m,
				AvgSimSecs: secs / float64(p.Samples),
				AvgMaxChi:  chi / float64(p.Samples),
			})
		}
	}
	return res, nil
}

// Table renders the sweep with one row per qubit count and one column pair
// per γ.
func (r *Fig7Result) Table() *Table {
	t := &Table{Header: []string{"qubits"}}
	for _, g := range r.Params.Gammas {
		t.Header = append(t.Header, fmt.Sprintf("γ=%.1f sim (s)", g), fmt.Sprintf("γ=%.1f χ", g))
	}
	for _, m := range r.Params.QubitGrid {
		row := []string{fmt.Sprintf("%d", m)}
		for _, g := range r.Params.Gammas {
			for _, pt := range r.Points {
				if pt.Qubits == m && pt.Gamma == g {
					row = append(row, F(pt.AvgSimSecs), F(pt.AvgMaxChi))
				}
			}
		}
		t.AddRow(row...)
	}
	return t
}

// SlowestGamma returns the γ with the largest total simulation time — the
// paper expects 0.5 (intermediate bandwidth ⇒ strongest entanglement).
func (r *Fig7Result) SlowestGamma() float64 {
	totals := map[float64]float64{}
	for _, pt := range r.Points {
		totals[pt.Gamma] += pt.AvgSimSecs
	}
	best, bestT := 0.0, -1.0
	for g, tt := range totals {
		if tt > bestT {
			best, bestT = g, tt
		}
	}
	return best
}
