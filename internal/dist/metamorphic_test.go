package dist

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/linalg"
	"repro/internal/statevector"
)

// TestEngineMetamorphicGramRelations is the metamorphic safety net for the
// fused zero-realloc gate engine and its Gram-accelerated truncation SVD
// (cf. the bit-identical transport × strategy relations): the Gram produced
// through the new kernels must
//
//  1. stay exactly symmetric with a unit diagonal (up to truncation noise),
//  2. remain positive semidefinite,
//  3. match the exact Gram of the dense state-vector oracle
//     (internal/statevector, on the unrouted circuits) within 1e-10
//     elementwise, plus the room the truncation budget leaves (below), and
//  4. stay bit-identical across transport × strategy combinations, all
//     equal to the serial kernel.Gram under the same engine.
func TestEngineMetamorphicGramRelations(t *testing.T) {
	X := testData(t, 12, 6)
	q := testKernel(6)
	gram, err := q.Gram(X)
	if err != nil {
		t.Fatal(err)
	}

	// Relation 1: symmetry and unit diagonal.
	n := len(gram)
	for i := 0; i < n; i++ {
		if d := math.Abs(gram[i][i] - 1); d > 1e-10 {
			t.Fatalf("diagonal entry (%d,%d) = %v, want 1 within 1e-10", i, i, gram[i][i])
		}
		for j := i + 1; j < n; j++ {
			if gram[i][j] != gram[j][i] {
				t.Fatalf("Gram not symmetric at (%d,%d): %v vs %v", i, j, gram[i][j], gram[j][i])
			}
			if gram[i][j] < 0 || gram[i][j] > 1+1e-10 {
				t.Fatalf("overlap (%d,%d) = %v outside [0,1]", i, j, gram[i][j])
			}
		}
	}

	// Relation 2: positive semidefiniteness.
	gm := linalg.NewMatrix(n, n)
	for i := range gram {
		for j, v := range gram[i] {
			gm.Set(i, j, complex(v, 0))
		}
	}
	minEig, err := linalg.MinEigenvalueHermitian(gm)
	if err != nil {
		t.Fatal(err)
	}
	if minEig < -1e-8 {
		t.Fatalf("engine Gram lost positive semidefiniteness: min eigenvalue %v", minEig)
	}

	// Relation 3: elementwise agreement with the exact state-vector Gram
	// within 1e-10 plus the truncation term. A state whose K truncations
	// discarded total weight ε is ψ − δ with ‖δ‖ ≤ Σₖ√εₖ ≤ √(K·ε), so
	// ||⟨ψ̃ᵢ|ψ̃ⱼ⟩|² − |⟨ψᵢ|ψⱼ⟩|²| ≤ 2(‖δᵢ‖ + ‖δⱼ‖ + ‖δᵢ‖‖δⱼ‖). Even at the
	// 1e-16 budget that term is first-order in √ε: one discarded weight of
	// 7e-17 here moves an entry by 7e-10.
	states, err := q.States(X)
	if err != nil {
		t.Fatal(err)
	}
	svs := make([]*statevector.State, n)
	delta := make([]float64, n)
	for i, x := range X {
		c, err := q.Ansatz.Build(x)
		if err != nil {
			t.Fatal(err)
		}
		svs[i] = statevector.Run(c)
		routed, err := q.Ansatz.BuildRouted(x)
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		for _, g := range routed.Gates {
			if len(g.Qubits) == 2 {
				k++
			}
		}
		delta[i] = math.Sqrt(float64(k) * states[i].TruncationError)
	}
	for i := range svs {
		for j := range svs {
			ip := cmplx.Abs(statevector.Inner(svs[i], svs[j]))
			tol := 1e-10 + 2*(delta[i]+delta[j]+delta[i]*delta[j])
			if d := math.Abs(gram[i][j] - ip*ip); d > tol {
				t.Fatalf("engine deviates from the state-vector Gram at (%d,%d): %v vs %v (Δ=%v, bound %v)",
					i, j, gram[i][j], ip*ip, d, tol)
			}
		}
	}

	// Relation 4: transport × strategy combinations stay bit-identical to
	// the serial Gram under the new engine (the full matrix of combinations
	// is exercised by TestTransportsProduceBitIdenticalGram; one combo per
	// strategy here keeps the relation local to this suite).
	for _, strat := range []Strategy{RoundRobin, NoMessaging} {
		res, err := ComputeGram(q, X, Options{Procs: 3, Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		for i := range gram {
			for j := range gram[i] {
				if res.Gram[i][j] != gram[i][j] {
					t.Fatalf("%v: entry (%d,%d) = %v, serial %v (must be bit-identical)",
						strat, i, j, res.Gram[i][j], gram[i][j])
				}
			}
		}
	}
}
