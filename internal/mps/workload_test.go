package mps_test

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/mps"
)

// workloadStates simulates n rows the way the bench/ workloads do: synthetic
// Elliptic features (heavy tail off) scaled by PrepareSplit, materialised
// through kernel.Quantum.States.
func workloadStates(tb testing.TB, a circuit.Ansatz, n int) []*mps.MPS {
	tb.Helper()
	full := dataset.GenerateElliptic(dataset.EllipticConfig{
		Features: a.Qubits, NumIllicit: 2 * n, NumLicit: 2 * n, Seed: 1, Skew: -1,
	})
	train, _, err := dataset.PrepareSplit(full, 2*n, a.Qubits, 1)
	if err != nil {
		tb.Fatal(err)
	}
	states, err := (&kernel.Quantum{Ansatz: a}).States(train.X[:n])
	if err != nil {
		tb.Fatal(err)
	}
	return states
}

// TestWorkspaceOnWideWorkloadStates: on 16 states of the train_wide shape
// (64 qubits, d=1, γ=0.1 — bond 2 at all but a handful of sites) the
// workspace agrees with mps.Inner exactly on every ordered pair, and the Gram
// built through it is a valid kernel matrix.
func TestWorkspaceOnWideWorkloadStates(t *testing.T) {
	states := workloadStates(t, circuit.Ansatz{Qubits: 64, Layers: 2, Distance: 1, Gamma: 0.1}, 16)
	w := mps.NewWorkspace()
	for i, a := range states {
		if a.MaxBond() > 3 {
			t.Fatalf("state %d has χ=%d: no longer the low-bond regime this test is about", i, a.MaxBond())
		}
		for j, b := range states {
			if got, want := w.Inner(a, b), mps.Inner(a, b); got != want {
				t.Fatalf("⟨%d|%d⟩: workspace %v, mps.Inner %v", i, j, got, want)
			}
		}
	}
	if err := kernel.ValidateGram(kernel.GramFromStates(states, 1), 1e-9, true); err != nil {
		t.Fatal(err)
	}
}

var benchSink complex128

// BenchmarkWorkspaceInner times one overlap at the three bond regimes of the
// bench/ workloads (train_wide and serve_hot, serve_fresh, train_deep); its
// ns/overlap is what the benchmark's mps.overlap_us tracks.
func BenchmarkWorkspaceInner(b *testing.B) {
	for _, c := range []struct {
		name string
		a    circuit.Ansatz
	}{
		{"bond2_64q", circuit.Ansatz{Qubits: 64, Layers: 2, Distance: 1, Gamma: 0.1}},
		{"bond13_16q", circuit.Ansatz{Qubits: 16, Layers: 2, Distance: 2, Gamma: 0.5}},
		{"bond32_10q", circuit.Ansatz{Qubits: 10, Layers: 2, Distance: 4, Gamma: 1.0}},
	} {
		b.Run(c.name, func(b *testing.B) {
			states := workloadStates(b, c.a, 32)
			w := mps.NewWorkspace()
			w.Inner(states[0], states[1]) // grow the buffers outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = w.Inner(states[i%32], states[(i/32+i+1)%32])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/overlap")
		})
	}
}
