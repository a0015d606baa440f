package mps_test

import (
	"testing"

	"repro/internal/backend"
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

// applyCircuitWorkload is one routed feature-map circuit at 24 qubits, d=3,
// γ=1 (χ 61) on a scaled synthetic Elliptic row.
func applyCircuitWorkload(tb testing.TB) (int, *circuit.Circuit) {
	tb.Helper()
	a := circuit.Ansatz{Qubits: 24, Layers: 2, Distance: 3, Gamma: 1.0}
	full := dataset.GenerateElliptic(dataset.EllipticConfig{Features: a.Qubits, NumIllicit: 32, NumLicit: 32, Seed: 1})
	sc, err := dataset.FitScaler(full)
	if err != nil {
		tb.Fatal(err)
	}
	scaled, err := sc.Transform(full)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := a.BuildRouted(scaled.X[0])
	if err != nil {
		tb.Fatal(err)
	}
	return a.Qubits, c
}

// applyCircuit materialises c from |0…0⟩ through the shared ws, the way the
// kernel's worker loops reuse one workspace (and its scratch state) across
// rows.
func applyCircuit(tb testing.TB, c *circuit.Circuit, be backend.Backend, ws *mps.SimWorkspace) *mps.MPS {
	tb.Helper()
	st, err := ws.Simulate(c, mps.Config{Backend: be})
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// TestApplyCircuitAllocs bounds the allocations of one full circuit
// simulation with a warm workspace: the scratch state's site buffers and the
// engine's scratch are all reused, so only the finished state's five
// allocations (MPS, Sites, and the slab's headers, shapes and payload)
// remain. The bound was 372 while every state allocated its own sites.
func TestApplyCircuitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("the 24-qubit circuit takes ~20 s under -race, and the count it checks has no concurrency")
	}
	_, c := applyCircuitWorkload(t)
	be, ws := backend.NewSerial(), mps.NewSimWorkspace()
	// AllocsPerRun's own warm-up call grows the workspace.
	if allocs := testing.AllocsPerRun(2, func() { applyCircuit(t, c, be, ws) }); allocs > 5 {
		t.Fatalf("Simulate with a warm workspace made %v allocations, want ≤ 5", allocs)
	}
}

// BenchmarkApplyCircuit isolates the gate-application hot path of the fused
// engine: one routed feature-map circuit simulated from |0…0⟩, with the
// simulation workspace reused across iterations. ns/op is the cost of a full
// state materialisation minus circuit construction; allocs/op measures how
// close the engine runs to its zero-realloc steady state.
func BenchmarkApplyCircuit(b *testing.B) {
	_, c := applyCircuitWorkload(b)
	be, ws := backend.NewSerial(), mps.NewSimWorkspace()
	b.ResetTimer()
	b.ReportAllocs()
	var chi int
	for i := 0; i < b.N; i++ {
		chi = applyCircuit(b, c, be, ws).MaxBond()
	}
	b.ReportMetric(float64(chi), "χ")
}
