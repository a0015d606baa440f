package circuit

import (
	"repro/internal/gates"
)

// Route lowers a circuit to nearest-neighbour form for MPS simulation
// (section II-C of the paper): every two-qubit gate acting on chain positions
// i and j = i+k with k > 1 is preceded by k−1 SWAP gates that walk qubit i up
// to position j−1, and followed by the reverse sequence, for a total of
// 2(k−1) additional SWAPs. Single-qubit gates and adjacent two-qubit gates
// pass through unchanged. The input circuit is not modified.
func Route(c *Circuit) *Circuit {
	out := New(c.NumQubits)
	out.Gates = make([]Gate, 0, len(c.Gates)+RoutingOverhead(c))
	for _, g := range c.Gates {
		if !g.IsTwoQubit() {
			out.MustAppend(g)
			continue
		}
		lo, hi := g.Qubits[0], g.Qubits[1]
		flipped := false
		if lo > hi {
			lo, hi = hi, lo
			flipped = true
		}
		if hi-lo == 1 {
			out.MustAppend(g)
			continue
		}
		// Walk the lower qubit up to position hi−1.
		for p := lo; p < hi-1; p++ {
			out.MustAppend(Gate{Name: "SWAP", Qubits: []int{p, p + 1}, Mat: gates.SWAP()})
		}
		q0, q1 := hi-1, hi
		if flipped {
			q0, q1 = hi, hi-1
		}
		out.MustAppend(Gate{Name: g.Name, Qubits: []int{q0, q1}, Mat: g.Mat})
		for p := hi - 2; p >= lo; p-- {
			out.MustAppend(Gate{Name: "SWAP", Qubits: []int{p, p + 1}, Mat: gates.SWAP()})
		}
	}
	return out
}

// RoutingOverhead reports how many SWAP gates Route would insert for the
// circuit, without building the routed version.
func RoutingOverhead(c *Circuit) int {
	total := 0
	for _, g := range c.Gates {
		if g.IsTwoQubit() {
			k := g.Qubits[0] - g.Qubits[1]
			if k < 0 {
				k = -k
			}
			if k > 1 {
				total += 2 * (k - 1)
			}
		}
	}
	return total
}
