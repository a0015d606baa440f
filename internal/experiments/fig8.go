package experiments

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/dist"
	"repro/internal/kernel"
)

// Fig8Params configures artifact A4 (Fig. 8): the wall-clock breakdown of
// training-set Gram computation as the data-set size and the process count
// double together, using the round-robin strategy. Paper values: 165 qubits,
// r=2, d=1, γ=0.1, sizes 400→6400 on 2→32 GPUs. Defaults scale the sizes to
// 64→512 on 2→16 processes; the claim under test — simulation wall-clock
// stays flat while inner-product wall-clock doubles per step — is a
// structural property that survives the rescaling.
type Fig8Params struct {
	Qubits   int
	Layers   int
	Distance int
	Gamma    float64
	// Steps lists (dataset size, process count) pairs; consecutive entries
	// double both, as in the paper's bars.
	Steps []Fig8Step
	Seed  int64
}

// Fig8Step is one bar of Fig. 8.
type Fig8Step struct {
	DataSize int
	Procs    int
}

func (p Fig8Params) withDefaults() Fig8Params {
	if p.Qubits == 0 {
		p.Qubits = 165
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
	if len(p.Steps) == 0 {
		p.Steps = []Fig8Step{{64, 2}, {128, 4}, {256, 8}, {512, 16}}
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Fig8Bar is one measured bar: per-phase wall-clock (max over processes, the
// quantity that bounds completion) plus totals.
type Fig8Bar struct {
	DataSize      int
	Procs         int
	SimWall       time.Duration
	InnerWall     time.Duration
	CommWall      time.Duration
	TotalWall     time.Duration
	BytesSent     int64
	InnerProducts int
}

// Fig8Result is the series of bars.
type Fig8Result struct {
	Params Fig8Params
	Bars   []Fig8Bar
}

// RunFig8 measures the distributed Gram computation for each step.
func RunFig8(p Fig8Params) (*Fig8Result, error) {
	p = p.withDefaults()
	maxN := 0
	for _, s := range p.Steps {
		if s.DataSize > maxN {
			maxN = s.DataSize
		}
	}
	res := &Fig8Result{Params: p}
	for _, step := range p.Steps {
		rows, err := scaledRows(p.Qubits, maxN, step.DataSize, p.Seed)
		if err != nil {
			return nil, err
		}
		q := &kernel.Quantum{
			Ansatz: circuit.Ansatz{Qubits: p.Qubits, Layers: p.Layers, Distance: p.Distance, Gamma: p.Gamma},
		}
		dres, err := dist.ComputeGram(q, rows, dist.Options{Procs: step.Procs, Strategy: dist.RoundRobin})
		if err != nil {
			return nil, err
		}
		sim, inner, comm := dres.MaxPhaseTimes()
		totalIP := 0
		for _, ps := range dres.Procs {
			totalIP += ps.InnerProducts
		}
		res.Bars = append(res.Bars, Fig8Bar{
			DataSize:      step.DataSize,
			Procs:         step.Procs,
			SimWall:       sim,
			InnerWall:     inner,
			CommWall:      comm,
			TotalWall:     dres.Wall,
			BytesSent:     dres.TotalBytes(),
			InnerProducts: totalIP,
		})
	}
	return res, nil
}

// Table renders the bars.
func (r *Fig8Result) Table() *Table {
	t := &Table{Header: []string{
		"data size", "procs", "sim wall (s)", "inner wall (s)", "comm wall (s)",
		"total wall (s)", "MiB sent", "inner products",
	}}
	for _, b := range r.Bars {
		t.AddRow(
			fmt.Sprintf("%d", b.DataSize),
			fmt.Sprintf("%d", b.Procs),
			F(Seconds(b.SimWall)),
			F(Seconds(b.InnerWall)),
			F(Seconds(b.CommWall)),
			F(Seconds(b.TotalWall)),
			F(float64(b.BytesSent)/(1<<20)),
			fmt.Sprintf("%d", b.InnerProducts),
		)
	}
	return t
}

// Extrapolate predicts the wall-clock to train on a data set of size n with
// k processes, using measured per-state simulation and per-pair
// inner-product costs from the largest bar — the arithmetic behind the
// paper's "64,000 entries in 30 hours on 320 GPUs" projection.
func (r *Fig8Result) Extrapolate(n, k int) time.Duration {
	if len(r.Bars) == 0 {
		return 0
	}
	last := r.Bars[len(r.Bars)-1]
	simPerState := last.SimWall.Seconds() * float64(last.Procs) / float64(last.DataSize)
	pairs := float64(last.DataSize) * (float64(last.DataSize) - 1) / 2
	ipPerPair := last.InnerWall.Seconds() * float64(last.Procs) / pairs
	wantPairs := float64(n) * (float64(n) - 1) / 2
	secs := simPerState*float64(n)/float64(k) + ipPerPair*wantPairs/float64(k)
	return time.Duration(secs * float64(time.Second))
}
