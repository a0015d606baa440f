package dist

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/kernel"
	"repro/internal/mps"
)

// skewedRows builds a pessimally ordered input for equal-count round-robin
// sharding on 2 processes: heavy rows (features at the edge of the rescaled
// interval → large entangling angles → high χ) at even indices, near-product
// rows (features ≈ 1 → θ ≈ 0) at odd indices, so the naive assignment parks
// every heavy row on rank 0.
func skewedRows(n, features int) [][]float64 {
	X := make([][]float64, n)
	for i := range X {
		row := make([]float64, features)
		v := 1.0 // exactly θ=0: a product state, nearly free to simulate
		if i%2 == 0 {
			v = 0.05
		}
		for j := range row {
			row[j] = v
		}
		X[i] = row
	}
	return X
}

func TestEstimateRowCostOrdersByEntanglement(t *testing.T) {
	a := circuit.Ansatz{Qubits: 8, Layers: 2, Distance: 2, Gamma: 0.7}
	cheap := EstimateRowCost(a, skewedRows(2, 8)[1])
	heavy := EstimateRowCost(a, skewedRows(2, 8)[0])
	if !(cheap > 0 && heavy > 0) {
		t.Fatalf("costs must be positive: cheap %v, heavy %v", cheap, heavy)
	}
	if heavy < 4*cheap {
		t.Fatalf("entangling row (%v) should cost far more than product row (%v)", heavy, cheap)
	}
	// Unusable rows degrade to unit cost instead of poisoning the assignment.
	if c := EstimateRowCost(a, []float64{0.5}); c != 1 {
		t.Fatalf("width mismatch should cost 1, got %v", c)
	}
	if c := EstimateRowCost(a, []float64{math.NaN(), 1, 1, 1, 1, 1, 1, 1}); math.IsNaN(c) || c <= 0 {
		t.Fatalf("NaN feature produced unusable cost %v", c)
	}
}

// TestCostBalancedIndicesPartition: the assignment is a partition (every
// index exactly once), shard-local ascending, deterministic, and leaves
// ranks ≥ n empty when processes outnumber rows.
func TestCostBalancedIndicesPartition(t *testing.T) {
	a := circuit.Ansatz{Qubits: 6, Layers: 2, Distance: 2, Gamma: 0.7}
	X := testData(t, 11, 6)
	for _, k := range []int{1, 2, 5} {
		assign := costBalancedIndices(a, X, k)
		if len(assign) != k {
			t.Fatalf("k=%d: %d shards", k, len(assign))
		}
		seen := make([]int, len(X))
		for _, shard := range assign {
			for i, idx := range shard {
				seen[idx]++
				if i > 0 && shard[i-1] >= idx {
					t.Fatalf("k=%d: shard not ascending: %v", k, shard)
				}
			}
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("k=%d: index %d assigned %d times", k, i, c)
			}
		}
	}
	assign := costBalancedIndices(a, X[:3], 5)
	for p := 3; p < 5; p++ {
		if len(assign[p]) != 0 {
			t.Fatalf("rank %d should be idle with 3 rows on 5 procs: %v", p, assign[p])
		}
	}
}

// TestBalancedReducesPredictedSkew: the deterministic half of the ROADMAP
// item — on pessimally ordered inputs the predicted per-process load under
// LPT is near-flat while equal-count round-robin is maximally skewed.
func TestBalancedReducesPredictedSkew(t *testing.T) {
	a := circuit.Ansatz{Qubits: 8, Layers: 2, Distance: 2, Gamma: 0.7}
	X := skewedRows(16, 8)
	costs := make([]float64, len(X))
	for i := range X {
		costs[i] = EstimateRowCost(a, X[i])
	}
	loadRatio := func(assign [][]int) float64 {
		maxL, minL := 0.0, math.Inf(1)
		for _, shard := range assign {
			if len(shard) == 0 {
				continue
			}
			var l float64
			for _, i := range shard {
				l += costs[i]
			}
			if l > maxL {
				maxL = l
			}
			if l < minL {
				minL = l
			}
		}
		return maxL / minL
	}
	naive := loadRatio(naiveIndices(len(X), 2))
	balanced := loadRatio(costBalancedIndices(a, X, 2))
	if naive < 2 {
		t.Fatalf("input not skewed enough to test: naive load ratio %v", naive)
	}
	if balanced > 1.5 {
		t.Fatalf("balanced assignment still skewed: load ratio %v", balanced)
	}
	if balanced >= naive {
		t.Fatalf("balancing did not help: %v vs naive %v", balanced, naive)
	}
}

// TestBalancedReducesSimTimeSkew is the end-to-end half: on the same skewed
// input, the measured per-process simulation wall-clock skew (max/min) of the
// cost-balanced round-robin Gram is lower than the naive equal-count
// assignment's — and both produce the identical Gram matrix.
func TestBalancedReducesSimTimeSkew(t *testing.T) {
	// A deeper, longer-range ansatz widens the heavy/cheap contrast (heavy
	// rows reach χ ≈ 2^6, cheap rows stay χ = 1), so the timing comparison
	// has real signal rather than overhead noise.
	const features = 12
	mk := func() *kernel.Quantum {
		return &kernel.Quantum{Ansatz: circuit.Ansatz{Qubits: features, Layers: 2, Distance: 3, Gamma: 1.0}}
	}
	X := skewedRows(16, features)
	const k = 2
	simSkew := func(stats []ProcStats) float64 {
		maxS, minS := time.Duration(0), time.Duration(math.MaxInt64)
		for _, ps := range stats {
			if ps.StatesSimulated == 0 {
				continue
			}
			if ps.SimTime > maxS {
				maxS = ps.SimTime
			}
			if ps.SimTime < minS {
				minS = ps.SimTime
			}
		}
		if minS < time.Microsecond {
			minS = time.Microsecond
		}
		return float64(maxS) / float64(minS)
	}

	// Naive equal-count run, through the same machinery ComputeGram uses.
	gramNaive := square(len(X))
	retain := make([]*mps.MPS, len(X))
	statsNaive := newStats(k)
	if err := runGramRoundRobin(mk(), X, gramNaive, retain, statsNaive, naiveIndices(len(X), k), Options{Procs: k}.withDefaults(), nil); err != nil {
		t.Fatal(err)
	}
	mirror(gramNaive)

	res, err := ComputeGram(mk(), X, Options{Procs: k, Strategy: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	checkAgree(t, "balanced vs naive", gramNaive, res.Gram)

	naive, balanced := simSkew(statsNaive), simSkew(res.Procs)
	t.Logf("sim-time skew (max/min): naive %.2f, balanced %.2f", naive, balanced)
	if naive < 1.5 {
		t.Skipf("naive run not skewed on this machine (%.2f); timing too coarse to compare", naive)
	}
	if balanced >= naive {
		t.Fatalf("cost balancing did not reduce sim-time skew: balanced %.2f vs naive %.2f", balanced, naive)
	}
}

// estimateRowCostPerRow is EstimateRowCost as it was before the ansatz work
// was hoisted out of the per-row loop: edges and cut scratch made per row.
func estimateRowCostPerRow(a circuit.Ansatz, x []float64) float64 {
	m := a.Qubits
	if m < 2 || len(x) != m {
		return 1
	}
	layers := float64(a.Layers)
	logChi := make([]float64, m-1)
	for _, e := range a.Edges() {
		growth := layers * math.Log2(1+math.Abs(math.Sin(a.EntanglingTheta(x, e[0], e[1])/2)))
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

// TestRowCosterMatchesPerRowForm: one rowCoster reused across rows (its
// scratch cleared per row) gives every row the cost the per-row form gives,
// ==, including wrong-width and non-finite rows; EstimateRowCost agrees too.
func TestRowCosterMatchesPerRowForm(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, a := range []circuit.Ansatz{
		{Qubits: 1, Layers: 1, Distance: 1, Gamma: 0.5},
		{Qubits: 8, Layers: 2, Distance: 2, Gamma: 0.7},
		{Qubits: 16, Layers: 3, Distance: 4, Gamma: 1.2},
		{Qubits: 64, Layers: 2, Distance: 1, Gamma: 0.1},
	} {
		rc := newRowCoster(a)
		for r := 0; r < 50; r++ {
			x := make([]float64, a.Qubits)
			for i := range x {
				x[i] = 2 * rng.Float64()
			}
			switch r {
			case 10:
				x = x[:len(x)/2]
			case 20:
				x[len(x)-1] = math.NaN()
			case 30:
				x[0] = math.Inf(1)
			}
			want := estimateRowCostPerRow(a, x)
			if got := rc.cost(x); got != want {
				t.Fatalf("%+v row %d: cost %v, per-row form %v", a, r, got, want)
			}
			if got := EstimateRowCost(a, x); got != want {
				t.Fatalf("%+v row %d: EstimateRowCost %v, per-row form %v", a, r, got, want)
			}
		}
	}
}
