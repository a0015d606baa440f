package circuit

import (
	"fmt"
	"math"

	"repro/internal/gates"
	"repro/internal/linalg"
)

// Program is an Ansatz compiled once: the routed gate list BuildRouted
// produces, with every gate's name and qubits fixed, the constant H and SWAP
// matrices built once, and for each parametrised gate the feature (RZ) or
// interaction edge (RXX) that sets its angle. Bind writes one data row's
// angles into a circuit without rebuilding or re-routing it — the per-row
// work of the framework's linear-cost stage is then the simulation alone.
// A Program is immutable and safe for concurrent use.
type Program struct {
	a       Ansatz
	ops     []op
	params  int // RZ and RXX ops: the matrices a bound circuit owns
	entries int // their total complex128 entries
}

type opKind uint8

const (
	opConst opKind = iota // H or SWAP: one shared constant matrix
	opRZ                  // RZ(2γ·x_i)
	opRXX                 // RXX(Ansatz.EntanglingTheta(x, i, j))
)

// op is one gate of the compiled list. qubits is shared by every circuit
// the program binds and must not be modified.
type op struct {
	kind   opKind
	name   string
	qubits []int
	mat    *linalg.Matrix // opConst only
	i, j   int            // the feature (opRZ) or edge (opRXX) setting the angle
}

// Compile validates the ansatz and lays out its routed gate list: the gate
// order of Build (Hadamard layer, then per layer the RZ column and the RXX
// edges in ScheduledEdges order) lowered exactly as Route lowers it, each
// long-range RXX walked into place by SWAPs and walked back.
func Compile(a Ansatz) (*Program, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	n := a.Qubits
	wire := make([][]int, n)  // []int{q}: H and RZ on qubit q
	adj := make([][]int, n-1) // []int{p, p+1}: SWAPs and adjacent RXX
	for q := range wire {
		wire[q] = []int{q}
		if q+1 < n {
			adj[q] = []int{q, q + 1}
		}
	}
	h, swap := gates.H(), gates.SWAP()
	rounds := a.ScheduledEdges()
	p := &Program{a: a}
	for q := 0; q < n; q++ {
		p.ops = append(p.ops, op{kind: opConst, name: "H", qubits: wire[q], mat: h})
	}
	for layer := 0; layer < a.Layers; layer++ {
		for q := 0; q < n; q++ {
			p.ops = append(p.ops, op{kind: opRZ, name: "RZ", qubits: wire[q], i: q})
			p.params++
			p.entries += 4
		}
		for _, round := range rounds {
			for _, e := range round {
				lo, hi := e[0], e[1] // edges are listed low qubit first
				for s := lo; s < hi-1; s++ {
					p.ops = append(p.ops, op{kind: opConst, name: "SWAP", qubits: adj[s], mat: swap})
				}
				p.ops = append(p.ops, op{kind: opRXX, name: "RXX", qubits: adj[hi-1], i: lo, j: hi})
				p.params++
				p.entries += 16
				for s := hi - 2; s >= lo; s-- {
					p.ops = append(p.ops, op{kind: opConst, name: "SWAP", qubits: adj[s], mat: swap})
				}
			}
		}
	}
	return p, nil
}

// Bind writes the circuit of data point x (rescaled into (0,2)) into dst:
// the gates BuildRouted(x) returns, with the same names, qubits and matrix
// entries (RZ and RXX entries come from gates.SetRZ and gates.SetRXX, the
// code gates.RZ and gates.RXX run). A row of the wrong width or with a
// non-finite feature returns Build's error and leaves dst unspecified.
//
// dst's gate slice and its RZ/RXX matrices are reused from dst's previous
// Bind by the same program, so binding a warm circuit allocates nothing; the
// next Bind into dst overwrites them. The qubit lists and the H/SWAP
// matrices are shared with every circuit this program binds and must not be
// modified.
func (p *Program) Bind(x []float64, dst *Circuit) error {
	a := p.a
	if len(x) != a.Qubits {
		return fmt.Errorf("circuit: data point has %d features for %d qubits", len(x), a.Qubits)
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("circuit: feature %d is not finite: %v", i, v)
		}
	}
	if dst.boundBy != p {
		dst.own = make([]linalg.Matrix, p.params)
		backing := make([]complex128, p.entries)
		k := 0
		for _, o := range p.ops {
			if o.kind == opConst {
				continue
			}
			d := 2
			if o.kind == opRXX {
				d = 4
			}
			m := &dst.own[k]
			m.Rows, m.Cols, m.Data = d, d, backing[:d*d:d*d]
			backing = backing[d*d:]
			k++
		}
		dst.boundBy = p
	}
	if cap(dst.Gates) < len(p.ops) {
		dst.Gates = make([]Gate, len(p.ops))
	}
	dst.NumQubits = a.Qubits
	dst.Gates = dst.Gates[:len(p.ops)]
	k := 0
	for n, o := range p.ops {
		g := Gate{Name: o.name, Qubits: o.qubits, Mat: o.mat}
		switch o.kind {
		case opRZ:
			g.Mat = &dst.own[k]
			k++
			gates.SetRZ(g.Mat.Data, 2*a.Gamma*x[o.i])
		case opRXX:
			g.Mat = &dst.own[k]
			k++
			gates.SetRXX(g.Mat.Data, a.EntanglingTheta(x, o.i, o.j))
		}
		dst.Gates[n] = g
	}
	return nil
}
