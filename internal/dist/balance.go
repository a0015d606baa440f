package dist

import (
	"math"
	"sort"

	"repro/internal/circuit"
)

// Per-row cost-balanced sharding (the ROADMAP's "load-balance round-robin by
// measured cost" item). Equal-count shards assume every state costs the same
// to simulate, but the bond dimension an MPS reaches — and with it the
// O(m·χ³) simulation cost — depends on the data row through the entangling
// angles of the feature map: θ_ij = γ²π(1−x_i)(1−x_j), so rows near the
// centre of the rescaled interval (x≈1) stay near-product while rows at its
// edges entangle hard. On skewed inputs an equal-count shard can leave one
// process simulating all the heavy rows while its peers idle at the barrier.
//
// EstimateRowCost predicts the relative cost of a row before simulating it,
// and costBalancedIndices turns those predictions into shards via greedy
// longest-processing-time assignment. The assignment is deterministic, and
// any disjoint partition preserves the exactly-once pair accounting of the
// ring exchange, so the Gram matrix is unchanged entry for entry.

// EstimateRowCost predicts the relative simulation cost of one data row
// under the ansatz, in arbitrary units proportional to Σ_cuts χ̂³ (the
// zipper/simulation work summed over virtual bonds). The bond estimate per
// cut multiplies a growth factor (1+|sin(θ/2)|) ∈ [1,2] for every entangling
// gate crossing the cut — θ = 0 leaves the bond untouched, a maximally
// entangling gate can double it — capped by the exact qubit-count bound
// χ ≤ 2^min(left,right). The interaction graph and angles come from the
// ansatz itself (Edges, EntanglingTheta), not a re-derivation. Rows that
// cannot be costed (width mismatch) report cost 1 so callers can still
// shard them; rows with non-finite features clamp to each cut's cap (they
// will fail the simulator's validation regardless of where they land).
func EstimateRowCost(a circuit.Ansatz, x []float64) float64 {
	return newRowCoster(a).cost(x)
}

// rowCoster is EstimateRowCost with the per-ansatz work hoisted out of the
// per-row loop: the interaction edges and the per-cut scratch are made once
// per sharding call, not once per row.
type rowCoster struct {
	a      circuit.Ansatz
	edges  [][2]int
	logChi []float64 // one entry per virtual-bond cut
}

func newRowCoster(a circuit.Ansatz) *rowCoster {
	rc := &rowCoster{a: a}
	if a.Qubits >= 2 {
		rc.edges, rc.logChi = a.Edges(), make([]float64, a.Qubits-1)
	}
	return rc
}

// cost is EstimateRowCost(rc.a, x).
func (rc *rowCoster) cost(x []float64) float64 {
	a := rc.a
	m := a.Qubits
	if m < 2 || len(x) != m {
		return 1
	}
	layers := float64(a.Layers)
	logChi := rc.logChi
	clear(logChi)
	for _, e := range rc.edges {
		growth := layers * math.Log2(1+math.Abs(math.Sin(a.EntanglingTheta(x, e[0], e[1])/2)))
		// Edge (i,j) crosses the cuts between qubits i..j−1 and j.
		for c := e[0]; c < e[1]; c++ {
			logChi[c] += growth
		}
	}
	var total float64
	for c, lc := range logChi {
		capLog := float64(c + 1)
		if right := float64(m - 1 - c); right < capLog {
			capLog = right
		}
		if lc > capLog || math.IsNaN(lc) {
			lc = capLog
		}
		total += math.Exp2(3 * lc)
	}
	if math.IsNaN(total) || math.IsInf(total, 0) || total <= 0 {
		return 1
	}
	return total
}

// costBalancedIndices shards the rows of X across k processes by predicted
// cost: rows are taken heaviest first and each is assigned to the currently
// lightest shard (greedy LPT, ties to the lowest rank), so the max/min
// per-process simulation load is near-balanced even on skewed inputs. Each
// shard is returned in ascending index order (the triangle-ownership loops
// rely on shard-local ordering). Deterministic for a given (ansatz, X, k);
// with fewer rows than processes, ranks ≥ len(X) get empty shards.
func costBalancedIndices(a circuit.Ansatz, X [][]float64, k int) [][]int {
	costs := make([]float64, len(X))
	order := make([]int, len(X))
	rc := newRowCoster(a)
	for i, x := range X {
		costs[i] = rc.cost(x)
		order[i] = i
	}
	sort.SliceStable(order, func(p, q int) bool { return costs[order[p]] > costs[order[q]] })

	assign := make([][]int, k)
	loads := make([]float64, k)
	for _, i := range order {
		best := 0
		for p := 1; p < k; p++ {
			if loads[p] < loads[best] {
				best = p
			}
		}
		assign[best] = append(assign[best], i)
		loads[best] += costs[i]
	}
	for p := range assign {
		sort.Ints(assign[p])
	}
	return assign
}

// naiveIndices is the equal-count round-robin assignment in the same shape as
// costBalancedIndices; kept for the balance tests' before/after comparison.
func naiveIndices(n, k int) [][]int {
	assign := make([][]int, k)
	for p := 0; p < k; p++ {
		assign[p] = ownedIndices(n, k, p)
	}
	return assign
}
