package mps

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
)

// TestSkipCanonicalizationStillCorrect: without centre moves the truncation
// is suboptimal (paper footnote 2), but at the default near-zero budget the
// state must still match the canonical simulation.
func TestSkipCanonicalizationStillCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := circuit.Ansatz{Qubits: 8, Layers: 2, Distance: 2, Gamma: 0.7}
	x := randomData(rng, 8)
	canonical := buildAnsatzMPS(t, a, x, Config{})
	skipped := buildAnsatzMPS(t, a, x, Config{SkipCanonicalization: true})
	if ov := Overlap(canonical, skipped); math.Abs(ov-1) > 1e-8 {
		t.Fatalf("skip-canonicalisation state diverged: overlap %v", ov)
	}
}

// TestSkipCanonicalizationObservablesRecover: the observable the model reads
// is the fidelity kernel |⟨ψ(x)|ψ(x′)⟩|². A state built without centre
// maintenance must give the same kernel entries as the canonical run against
// other encoded points, on the fused engine and the reference path, through
// both the plain zipper and the reusable workspace.
func TestSkipCanonicalizationObservablesRecover(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := circuit.Ansatz{Qubits: 6, Layers: 2, Distance: 2, Gamma: 0.5}
	x := randomData(rng, 6)
	others := make([]*MPS, 4)
	for i := range others {
		others[i] = buildAnsatzMPS(t, a, randomData(rng, 6), Config{})
	}
	ws := NewWorkspace()
	for _, ref := range []bool{false, true} {
		canonical := buildAnsatzMPS(t, a, x, Config{ReferenceKernels: ref})
		skipped := buildAnsatzMPS(t, a, x, Config{ReferenceKernels: ref, SkipCanonicalization: true})
		if math.Abs(skipped.Norm()-1) > 1e-8 {
			t.Fatalf("reference=%v: skipped state norm %v", ref, skipped.Norm())
		}
		for i, o := range others {
			want := Overlap(canonical, o)
			if got := Overlap(skipped, o); math.Abs(got-want) > 1e-8 {
				t.Fatalf("reference=%v: kernel entry %d differs: %v vs %v", ref, i, got, want)
			}
			if got := ws.Overlap(o, skipped); math.Abs(got-want) > 1e-8 {
				t.Fatalf("reference=%v: workspace kernel entry %d differs: %v vs %v", ref, i, got, want)
			}
		}
	}
}

// TestSkipCanonicalizationChiNotSmaller: without canonical form, SVD
// truncation sees non-optimal singular spectra, so the bond dimension under
// an aggressive budget is at least as large as (usually larger than) the
// canonical run's — the cost the paper's canonicalisation avoids.
func TestSkipCanonicalizationChiNotSmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := circuit.Ansatz{Qubits: 10, Layers: 2, Distance: 3, Gamma: 0.8}
	x := randomData(rng, 10)
	cfgBase := Config{TruncationBudget: 1e-8}
	canonical := buildAnsatzMPS(t, a, x, cfgBase)
	cfgSkip := cfgBase
	cfgSkip.SkipCanonicalization = true
	skipped := buildAnsatzMPS(t, a, x, cfgSkip)
	if skipped.MaxBond() < canonical.MaxBond() {
		t.Fatalf("skip-canonicalisation produced smaller χ (%d < %d) — unexpected",
			skipped.MaxBond(), canonical.MaxBond())
	}
}

// TestCanonicalFlagTracking: the canonical flag stays set, and the centre
// follows each two-qubit gate, while the mixed-canonical invariant is
// maintained; SkipCanonicalization clears it at the first two-qubit gate
// (single-qubit gates never touch it) and from then on leaves the centre
// where it was. Clone carries both.
func TestCanonicalFlagTracking(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	a := circuit.Ansatz{Qubits: 5, Layers: 1, Distance: 1, Gamma: 0.5}
	c, err := a.BuildRouted(randomData(rng, 5))
	if err != nil {
		t.Fatal(err)
	}
	lastCentre := -1
	for _, g := range c.Gates {
		if len(g.Qubits) == 2 {
			lastCentre = max(g.Qubits[0], g.Qubits[1])
		}
	}
	if lastCentre < 0 {
		t.Fatal("ansatz has no two-qubit gate")
	}
	for _, ref := range []bool{false, true} {
		kept := NewZeroState(5, Config{ReferenceKernels: ref})
		if err := kept.ApplyCircuit(c); err != nil {
			t.Fatal(err)
		}
		if !kept.canonical || kept.center != lastCentre {
			t.Fatalf("reference=%v: canonical=%v centre=%d, want true at %d", ref, kept.canonical, kept.center, lastCentre)
		}
		if err := kept.CheckCanonical(1e-9); err != nil {
			t.Fatalf("reference=%v: %v", ref, err)
		}

		skipped := NewZeroState(5, Config{ReferenceKernels: ref, SkipCanonicalization: true})
		if err := skipped.ApplyGate(circuit.Gate{Name: "H", Qubits: []int{3}, Mat: gates.H()}); err != nil {
			t.Fatal(err)
		}
		if !skipped.canonical {
			t.Fatalf("reference=%v: a single-qubit gate cleared the canonical flag", ref)
		}
		if err := skipped.ApplyCircuit(c); err != nil {
			t.Fatal(err)
		}
		if skipped.canonical || skipped.center != 0 {
			t.Fatalf("reference=%v: skipped run canonical=%v centre=%d, want false at 0", ref, skipped.canonical, skipped.center)
		}
		for _, m := range []*MPS{kept, skipped} {
			if cl := m.Clone(); cl.canonical != m.canonical || cl.center != m.center {
				t.Fatalf("reference=%v: clone canonical=%v centre=%d, original %v/%d",
					ref, cl.canonical, cl.center, m.canonical, m.center)
			}
		}
	}
}
