package experiments

import (
	"fmt"
	"time"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/mps"
)

// Fig5Params configures artifact A3 (Fig. 5 + Table I): the serial/parallel
// crossover sweep over qubit interaction distance. Paper values: m=100
// qubits, r=2 layers, γ=1.0, d ∈ {2,4,…,12}, 8 circuits (28 inner products)
// per point. Defaults are scaled to m=32, d ∈ {1..6} so the sweep finishes
// in minutes while still crossing the serial/parallel break-even point.
type Fig5Params struct {
	Qubits    int
	Layers    int
	Gamma     float64
	Distances []int
	Circuits  int // circuits simulated per distance (paper: 8)
	Workers   int // parallel-backend worker count (0 = GOMAXPROCS)
	Seed      int64
}

func (p Fig5Params) withDefaults() Fig5Params {
	if p.Qubits == 0 {
		p.Qubits = 32
	}
	if p.Layers == 0 {
		p.Layers = 2
	}
	if p.Gamma == 0 {
		p.Gamma = 1.0
	}
	if len(p.Distances) == 0 {
		p.Distances = []int{1, 2, 3, 4, 5, 6}
	}
	if p.Circuits == 0 {
		p.Circuits = 8
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Fig5Point is one distance's measurements for one backend.
type Fig5Point struct {
	Distance  int
	SimTime   Sample // per-circuit MPS simulation time (seconds)
	InnerTime Sample // per-pair inner product time (seconds)
	// Table I columns:
	AvgLargestChi float64 // average of the largest bond dimension
	MemPerMPSMiB  float64 // average memory footprint of the final MPS
}

// Fig5Result holds both backend series.
type Fig5Result struct {
	Params   Fig5Params
	Serial   []Fig5Point
	Parallel []Fig5Point
	// CrossoverDistance is the smallest distance at which the parallel
	// backend's median simulation time beats serial (−1 if never) — the
	// paper's headline observation (d≈10 at χ≈320 on their hardware).
	CrossoverDistance int
	// CrossoverChi is the serial backend's average largest χ at that point.
	CrossoverChi float64
}

// RunFig5TableI executes the crossover sweep. Data rows are drawn from the
// synthetic Elliptic dataset exactly as the paper draws from Kaggle's.
func RunFig5TableI(p Fig5Params) (*Fig5Result, error) {
	p = p.withDefaults()
	rows, err := scaledRows(p.Qubits, 4*p.Circuits, 2*p.Circuits, p.Seed)
	if err != nil {
		return nil, err
	}
	rows = rows[:p.Circuits]

	res := &Fig5Result{Params: p, CrossoverDistance: -1}
	for _, d := range p.Distances {
		if d >= p.Qubits {
			return nil, fmt.Errorf("experiments: distance %d ≥ qubits %d", d, p.Qubits)
		}
		ansatz := circuit.Ansatz{Qubits: p.Qubits, Layers: p.Layers, Distance: d, Gamma: p.Gamma}
		sp, err := measureFig5Point(ansatz, rows, backend.NewSerial())
		if err != nil {
			return nil, err
		}
		pp, err := measureFig5Point(ansatz, rows, backend.NewParallel(p.Workers))
		if err != nil {
			return nil, err
		}
		res.Serial = append(res.Serial, sp)
		res.Parallel = append(res.Parallel, pp)
		if res.CrossoverDistance < 0 && pp.SimTime.Median < sp.SimTime.Median {
			res.CrossoverDistance = d
			res.CrossoverChi = sp.AvgLargestChi
		}
	}
	return res, nil
}

func measureFig5Point(ansatz circuit.Ansatz, rows [][]float64, be backend.Backend) (Fig5Point, error) {
	pt := Fig5Point{Distance: ansatz.Distance}
	states := make([]*mps.MPS, 0, len(rows))
	var simTimes []float64
	var chiSum float64
	var memSum float64
	for _, x := range rows {
		c, err := ansatz.BuildRouted(x)
		if err != nil {
			return pt, err
		}
		st := mps.NewZeroState(ansatz.Qubits, mps.Config{Backend: be})
		t0 := time.Now()
		if err := st.ApplyCircuit(c); err != nil {
			return pt, err
		}
		simTimes = append(simTimes, time.Since(t0).Seconds())
		states = append(states, st)
		chiSum += float64(st.MaxBond())
		memSum += float64(st.MemoryBytes()) / (1 << 20)
	}
	var ipTimes []float64
	for i := 0; i < len(states); i++ {
		for j := i + 1; j < len(states); j++ {
			t0 := time.Now()
			_ = mps.InnerWith(states[i], states[j], be)
			ipTimes = append(ipTimes, time.Since(t0).Seconds())
		}
	}
	pt.SimTime = Summarize(simTimes)
	pt.InnerTime = Summarize(ipTimes)
	pt.AvgLargestChi = chiSum / float64(len(rows))
	pt.MemPerMPSMiB = memSum / float64(len(rows))
	return pt, nil
}

// TableI renders the paper's Table I from the sweep result: average largest
// bond dimension per backend and memory per MPS.
func (r *Fig5Result) TableI() *Table {
	t := &Table{Header: []string{"interaction distance", "Avg. largest χ (parallel)", "Avg. largest χ (serial)", "Memory per MPS (MiB)"}}
	for i := range r.Serial {
		t.AddRow(
			fmt.Sprintf("%d", r.Serial[i].Distance),
			fmt.Sprintf("%.3f", r.Parallel[i].AvgLargestChi),
			fmt.Sprintf("%.3f", r.Serial[i].AvgLargestChi),
			fmt.Sprintf("%.2f", r.Serial[i].MemPerMPSMiB),
		)
	}
	return t
}

// Fig5Table renders the two timing series (Fig. 5a simulation, Fig. 5b inner
// product) as a table of medians and quartiles.
func (r *Fig5Result) Fig5Table() *Table {
	t := &Table{Header: []string{
		"d",
		"sim serial med (s)", "sim serial q1", "sim serial q3",
		"sim parallel med (s)", "sim parallel q1", "sim parallel q3",
		"ip serial med (s)", "ip parallel med (s)",
	}}
	for i := range r.Serial {
		s, p := r.Serial[i], r.Parallel[i]
		t.AddRow(
			fmt.Sprintf("%d", s.Distance),
			F(s.SimTime.Median), F(s.SimTime.Q1), F(s.SimTime.Q3),
			F(p.SimTime.Median), F(p.SimTime.Q1), F(p.SimTime.Q3),
			F(s.InnerTime.Median), F(p.InnerTime.Median),
		)
	}
	return t
}
