// Package circuit provides the quantum circuit intermediate representation
// and the paper's data-encoding ansatz (section II-A and Fig. 3): a Hadamard
// layer followed by r repetitions of e^{−iH_XX(x)}·e^{−iH_Z(x)} on a linear
// chain of qubits with tunable interaction distance, plus the SWAP-routing
// pass (section II-C) that lowers long-range RXX gates to nearest-neighbour
// form for the MPS simulator.
package circuit

import (
	"fmt"

	"repro/internal/linalg"
)

// Gate is a single quantum gate: a unitary applied to one or two qubit
// indices. For two-qubit gates Qubits lists the targets in the order matching
// the matrix's significance convention (first listed qubit = more significant
// basis index).
type Gate struct {
	Name   string
	Qubits []int
	Mat    *linalg.Matrix
}

// Arity returns the number of qubits the gate touches.
func (g Gate) Arity() int { return len(g.Qubits) }

// IsTwoQubit reports whether the gate touches two qubits.
func (g Gate) IsTwoQubit() bool { return len(g.Qubits) == 2 }

// Validate checks the gate's internal consistency against a circuit width.
func (g Gate) Validate(numQubits int) error {
	switch len(g.Qubits) {
	case 1:
		if g.Mat.Rows != 2 || g.Mat.Cols != 2 {
			return fmt.Errorf("circuit: 1-qubit gate %q has %d×%d matrix", g.Name, g.Mat.Rows, g.Mat.Cols)
		}
	case 2:
		if g.Mat.Rows != 4 || g.Mat.Cols != 4 {
			return fmt.Errorf("circuit: 2-qubit gate %q has %d×%d matrix", g.Name, g.Mat.Rows, g.Mat.Cols)
		}
		if g.Qubits[0] == g.Qubits[1] {
			return fmt.Errorf("circuit: gate %q targets qubit %d twice", g.Name, g.Qubits[0])
		}
	default:
		return fmt.Errorf("circuit: gate %q has unsupported arity %d", g.Name, len(g.Qubits))
	}
	for _, q := range g.Qubits {
		if q < 0 || q >= numQubits {
			return fmt.Errorf("circuit: gate %q targets qubit %d outside [0,%d)", g.Name, q, numQubits)
		}
	}
	return nil
}

// Circuit is an ordered list of gates over a fixed register of qubits,
// applied to the all-|0⟩ initial state.
type Circuit struct {
	NumQubits int
	Gates     []Gate

	// boundBy is the Program whose last Bind wrote this circuit, and own
	// the RZ/RXX matrices that Bind carved for it (reused by the next Bind
	// from the same program).
	boundBy *Program
	own     []linalg.Matrix
}

// New returns an empty circuit over n qubits.
func New(n int) *Circuit {
	if n <= 0 {
		panic(fmt.Sprintf("circuit: invalid qubit count %d", n))
	}
	return &Circuit{NumQubits: n}
}

// Append adds a gate after validating it; it returns an error rather than
// panicking so malformed programmatic circuits surface cleanly.
func (c *Circuit) Append(g Gate) error {
	if err := g.Validate(c.NumQubits); err != nil {
		return err
	}
	c.Gates = append(c.Gates, g)
	return nil
}

// MustAppend is Append for construction code paths where gates are known
// valid; it panics on error.
func (c *Circuit) MustAppend(g Gate) {
	if err := c.Append(g); err != nil {
		panic(err)
	}
}

// Stats summarises gate composition of the circuit.
type Stats struct {
	OneQubit  int
	TwoQubit  int
	Swaps     int
	Depth     int
	MaxRange  int // largest |i−j| over two-qubit gates
	TotalGate int
}

// Stats computes gate counts, circuit depth (greedy ASAP layering) and the
// maximum interaction range.
func (c *Circuit) Stats() Stats {
	var s Stats
	ready := make([]int, c.NumQubits) // earliest layer each qubit is free
	for _, g := range c.Gates {
		s.TotalGate++
		if g.IsTwoQubit() {
			s.TwoQubit++
			if g.Name == "SWAP" {
				s.Swaps++
			}
			r := g.Qubits[0] - g.Qubits[1]
			if r < 0 {
				r = -r
			}
			if r > s.MaxRange {
				s.MaxRange = r
			}
		} else {
			s.OneQubit++
		}
		layer := 0
		for _, q := range g.Qubits {
			if ready[q] > layer {
				layer = ready[q]
			}
		}
		for _, q := range g.Qubits {
			ready[q] = layer + 1
		}
		if layer+1 > s.Depth {
			s.Depth = layer + 1
		}
	}
	return s
}

// Validate re-checks every gate; useful after programmatic surgery.
func (c *Circuit) Validate() error {
	for i, g := range c.Gates {
		if err := g.Validate(c.NumQubits); err != nil {
			return fmt.Errorf("gate %d: %w", i, err)
		}
	}
	return nil
}

// NearestNeighbourOnly reports whether every two-qubit gate acts on adjacent
// chain positions — the precondition for direct MPS simulation.
func (c *Circuit) NearestNeighbourOnly() bool {
	for _, g := range c.Gates {
		if g.IsTwoQubit() {
			d := g.Qubits[0] - g.Qubits[1]
			if d != 1 && d != -1 {
				return false
			}
		}
	}
	return true
}
