package circuit

import (
	"fmt"
	"math"

	"repro/internal/gates"
)

// Ansatz describes the paper's feature-map circuit U(x) (equations (3)–(5)):
//
//	U(x) = [ e^{−iH_XX(x)} · e^{−iH_Z(x)} ]^r            applied to |+⟩^m
//	H_Z(x)  = γ Σ_i x_i σZ_i
//	H_XX(x) = γ²·(π/2) Σ_{(i,j)∈G} (1−x_i)(1−x_j) σX_i σX_j
//
// where G is a linear chain with edges (i, i+k) for k = 1..Distance.
// The number of qubits equals the number of features of the data point.
type Ansatz struct {
	Qubits   int     // m — one qubit per feature
	Layers   int     // r — Trotter layers
	Distance int     // d — qubit interaction distance on the chain
	Gamma    float64 // γ — kernel bandwidth coefficient
}

// Validate checks hyperparameter sanity.
func (a Ansatz) Validate() error {
	if a.Qubits < 1 {
		return fmt.Errorf("circuit: ansatz needs ≥1 qubit, got %d", a.Qubits)
	}
	if a.Layers < 1 {
		return fmt.Errorf("circuit: ansatz needs ≥1 layer, got %d", a.Layers)
	}
	if a.Distance < 1 {
		return fmt.Errorf("circuit: interaction distance must be ≥1, got %d", a.Distance)
	}
	if a.Distance >= a.Qubits && a.Qubits > 1 {
		return fmt.Errorf("circuit: interaction distance %d exceeds chain length %d", a.Distance, a.Qubits)
	}
	if a.Gamma <= 0 {
		return fmt.Errorf("circuit: γ must be positive, got %v", a.Gamma)
	}
	return nil
}

// Edges returns the interaction graph G: chain edges (i, i+k) for each
// k = 1..Distance, grouped by k.
func (a Ansatz) Edges() [][2]int {
	var es [][2]int
	for k := 1; k <= a.Distance; k++ {
		for i := 0; i+k < a.Qubits; i++ {
			es = append(es, [2]int{i, i + k})
		}
	}
	return es
}

// ScheduledEdges returns the interaction edges reordered into rounds in
// which no qubit appears twice, exploiting that RXX gates mutually commute
// (section II-C): this realises the e^{−iH_XX} block in ≈2·Distance layers
// instead of applying edges in an arbitrary serial order.
func (a Ansatz) ScheduledEdges() [][][2]int {
	remaining := a.Edges()
	var rounds [][][2]int
	for len(remaining) > 0 {
		used := make([]bool, a.Qubits)
		var round [][2]int
		var next [][2]int
		for _, e := range remaining {
			if !used[e[0]] && !used[e[1]] {
				used[e[0]], used[e[1]] = true, true
				round = append(round, e)
			} else {
				next = append(next, e)
			}
		}
		rounds = append(rounds, round)
		remaining = next
	}
	return rounds
}

// EntanglingTheta returns the RXX rotation angle of interaction edge (i,j)
// for data point x: θ_ij = γ²·(π/2)·(1−x_i)(1−x_j) scaled by the Trotter
// factor 2 — the H_XX coefficient of equation (4). Shared by Build and by
// the distribution layer's per-row cost estimate (dist.EstimateRowCost), so
// the two can never drift apart.
func (a Ansatz) EntanglingTheta(x []float64, i, j int) float64 {
	return a.Gamma * a.Gamma * math.Pi * (1 - x[i]) * (1 - x[j])
}

// Build constructs the logical circuit for data point x (already rescaled to
// the (0,2) interval; see internal/dataset). The result may contain
// long-range RXX gates when Distance > 1; pass it through Route before MPS
// simulation.
func (a Ansatz) Build(x []float64) (*Circuit, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if len(x) != a.Qubits {
		return nil, fmt.Errorf("circuit: data point has %d features for %d qubits", len(x), a.Qubits)
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("circuit: feature %d is not finite: %v", i, v)
		}
	}

	rounds := a.ScheduledEdges()
	edges := 0
	for _, round := range rounds {
		edges += len(round)
	}
	c := New(a.Qubits)
	c.Gates = make([]Gate, 0, a.Qubits+a.Layers*(a.Qubits+edges))
	// |+⟩^m preparation.
	for q := 0; q < a.Qubits; q++ {
		c.MustAppend(Gate{Name: "H", Qubits: []int{q}, Mat: gates.H()})
	}
	for layer := 0; layer < a.Layers; layer++ {
		// e^{−iH_Z(x)}: RZ(2γx_i) on each qubit.
		for q := 0; q < a.Qubits; q++ {
			theta := 2 * a.Gamma * x[q]
			c.MustAppend(Gate{Name: "RZ", Qubits: []int{q}, Mat: gates.RZ(theta)})
		}
		// e^{−iH_XX(x)}: RXX(2·γ²·(π/2)·(1−x_i)(1−x_j)) per edge, in
		// depth-minimised commuting rounds.
		for _, round := range rounds {
			for _, e := range round {
				i, j := e[0], e[1]
				c.MustAppend(Gate{Name: "RXX", Qubits: []int{i, j}, Mat: gates.RXX(a.EntanglingTheta(x, i, j))})
			}
		}
	}
	return c, nil
}

// BuildRouted returns the circuit Route(Build(x)) returns — only
// nearest-neighbour two-qubit gates, directly simulable as an MPS — through
// the one routed construction path: Compile, then Bind into a fresh circuit.
// Callers simulating many rows compile once and Bind each row instead.
func (a Ansatz) BuildRouted(x []float64) (*Circuit, error) {
	p, err := Compile(a)
	if err != nil {
		return nil, err
	}
	c := New(a.Qubits)
	if err := p.Bind(x, c); err != nil {
		return nil, err
	}
	return c, nil
}
