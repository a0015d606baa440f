package mps

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/statevector"
)

// TestStatevectorDifferentialOracle checks the engine and the reference
// chain against the exact state vector over seeded draws of the feature
// map: n in [4, 12], distance in [1, min(4, n−1)], 1–3 layers, γ in
// [0.2, 1.5] and MaxBond in {0, 2, 4, 8}.
//
// Uncapped, the simulation is exact up to the 1e-16 budget: 1 − F ≤ 1e-10
// with F = |⟨ψ|ψ̃⟩|². Capped, each of the K two-qubit gates truncates a
// state in canonical form, which removes exactly the discarded weight εₖ
// in squared norm, and unitaries preserve the distance already made; so
// ‖ψ − ψ̃‖ ≤ Σₖ √εₖ and, by Cauchy–Schwarz, ‖ψ − ψ̃‖² ≤ K · TruncationError.
// (Fidelity ≥ 1 − TruncationError is not a consequence and does not hold.)
// Both paths truncate the same spectra, so they must also record the same
// discarded weight.
func TestStatevectorDifferentialOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	paths := []struct {
		name  string
		apply func(*MPS, *circuit.Circuit) error
	}{
		{"engine", (*MPS).ApplyCircuit},
		{"reference", applyReference},
	}
	for draw := 0; draw < 120; draw++ {
		n := 4 + rng.Intn(9)
		a := circuit.Ansatz{
			Qubits:   n,
			Layers:   1 + rng.Intn(3),
			Distance: 1 + rng.Intn(min(4, n-1)),
			Gamma:    0.2 + 1.3*rng.Float64(),
		}
		maxBond := []int{0, 2, 4, 8}[draw%4]
		x := randomData(rng, n)
		name := fmt.Sprintf("%02d_n%d_d%d_r%d_chi%d", draw, n, a.Distance, a.Layers, maxBond)
		t.Run(name, func(t *testing.T) {
			logical, err := a.Build(x)
			if err != nil {
				t.Fatal(err)
			}
			routed, err := a.BuildRouted(x)
			if err != nil {
				t.Fatal(err)
			}
			k := 0
			for _, g := range routed.Gates {
				if len(g.Qubits) == 2 {
					k++
				}
			}
			psi := statevector.Run(logical).Amp
			errs := make([]float64, len(paths))
			for pi, p := range paths {
				m := NewZeroState(n, Config{MaxBond: maxBond})
				if err := p.apply(m, routed); err != nil {
					t.Fatal(err)
				}
				errs[pi] = m.TruncationError
				got := m.ToStateVector()
				var ip complex128
				var dist2 float64
				for i, want := range psi {
					ip += cmplx.Conj(want) * got[i]
					d := got[i] - want
					dist2 += real(d)*real(d) + imag(d)*imag(d)
				}
				if maxBond == 0 {
					f := real(ip)*real(ip) + imag(ip)*imag(ip)
					if 1-f > 1e-10 {
						t.Errorf("%s: 1 − F = %v, want ≤ 1e-10", p.name, 1-f)
					}
					continue
				}
				if bound := float64(k)*m.TruncationError + 1e-12; dist2 > bound {
					t.Errorf("%s: ‖ψ − ψ̃‖² = %v over K·ε + 1e-12 = %v (K = %d, ε = %v)",
						p.name, dist2, bound, k, m.TruncationError)
				}
			}
			if d := errs[0] - errs[1]; d > 1e-12 || d < -1e-12 {
				t.Errorf("discarded weight: engine %v, reference %v", errs[0], errs[1])
			}
		})
	}
}
