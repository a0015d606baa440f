// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation, one Benchmark per artifact, plus ablation benches
// for the design choices called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks intentionally use scaled-down parameters (documented per bench)
// so a full sweep finishes on a laptop; the cmd/ binaries expose the same
// runners with paper-scale flags. Custom metrics are reported through
// b.ReportMetric so the paper's quantities (χ, AUC, MiB) appear directly in
// the benchmark output.
package main

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/mps"
	"repro/internal/serve"
	"repro/internal/svm"
)

// benchData builds scaled, rescaled feature rows for simulator benches. The
// scaler is always fitted on ≥32 samples so the min-max statistics are
// representative even when only a handful of rows are requested.
func benchData(b *testing.B, n, features int) [][]float64 {
	b.Helper()
	fit := n
	if fit < 32 {
		fit = 32
	}
	full := dataset.GenerateElliptic(dataset.EllipticConfig{
		Features: features, NumIllicit: fit, NumLicit: fit, Seed: 1,
	})
	sc, err := dataset.FitScaler(full)
	if err != nil {
		b.Fatal(err)
	}
	scaled, err := sc.Transform(full)
	if err != nil {
		b.Fatal(err)
	}
	return scaled.X[:n]
}

func simulateOne(b *testing.B, a circuit.Ansatz, x []float64, be backend.Backend) *mps.MPS {
	b.Helper()
	c, err := a.BuildRouted(x)
	if err != nil {
		b.Fatal(err)
	}
	st := mps.NewZeroState(a.Qubits, mps.Config{Backend: be})
	if err := st.ApplyCircuit(c); err != nil {
		b.Fatal(err)
	}
	return st
}

// --- Fig. 5a: MPS simulation time, serial vs parallel backend -------------
// Paper: m=100, r=2, γ=1.0, d swept 2..12. Here: m=32, d=3 (a point in the
// middle of the sweep, χ≈60); see cmd/crossover for the full sweep and the
// crossover point itself.

func BenchmarkFig5SimulationSerial(b *testing.B) {
	a := circuit.Ansatz{Qubits: 32, Layers: 2, Distance: 3, Gamma: 1.0}
	x := benchData(b, 1, 32)[0]
	b.ReportAllocs()
	var chi int
	for i := 0; i < b.N; i++ {
		st := simulateOne(b, a, x, backend.NewSerial())
		chi = st.MaxBond()
	}
	b.ReportMetric(float64(chi), "χ")
}

func BenchmarkFig5SimulationParallel(b *testing.B) {
	a := circuit.Ansatz{Qubits: 32, Layers: 2, Distance: 3, Gamma: 1.0}
	x := benchData(b, 1, 32)[0]
	b.ReportAllocs()
	var chi int
	for i := 0; i < b.N; i++ {
		st := simulateOne(b, a, x, backend.NewParallel(0))
		chi = st.MaxBond()
	}
	b.ReportMetric(float64(chi), "χ")
}

// --- Fig. 5b: inner-product time, serial vs parallel backend --------------

func benchInner(b *testing.B, be backend.Backend) {
	a := circuit.Ansatz{Qubits: 32, Layers: 2, Distance: 3, Gamma: 1.0}
	rows := benchData(b, 2, 32)
	s1 := simulateOne(b, a, rows[0], backend.NewSerial())
	s2 := simulateOne(b, a, rows[1], backend.NewSerial())
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = mps.InnerWith(s1, s2, be)
	}
}

func BenchmarkFig5InnerProductSerial(b *testing.B)   { benchInner(b, backend.NewSerial()) }
func BenchmarkFig5InnerProductParallel(b *testing.B) { benchInner(b, backend.NewParallel(0)) }

// --- Table I: bond dimension growth with interaction distance -------------

func BenchmarkTable1BondDimensions(b *testing.B) {
	rows := benchData(b, 1, 24)
	b.ReportAllocs()
	var chi2, chi3 int
	for i := 0; i < b.N; i++ {
		st2 := simulateOne(b, circuit.Ansatz{Qubits: 24, Layers: 2, Distance: 2, Gamma: 1.0}, rows[0], backend.NewSerial())
		st3 := simulateOne(b, circuit.Ansatz{Qubits: 24, Layers: 2, Distance: 3, Gamma: 1.0}, rows[0], backend.NewSerial())
		chi2, chi3 = st2.MaxBond(), st3.MaxBond()
	}
	b.ReportMetric(float64(chi2), "χ(d=2)")
	b.ReportMetric(float64(chi3), "χ(d=3)")
}

// --- Fig. 6: memory evolution during simulation ---------------------------

func BenchmarkFig6MemoryEvolution(b *testing.B) {
	a := circuit.Ansatz{Qubits: 24, Layers: 2, Distance: 3, Gamma: 1.0}
	x := benchData(b, 1, 24)[0]
	c, err := a.BuildRouted(x)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var peak int64
	for i := 0; i < b.N; i++ {
		st := mps.NewZeroState(a.Qubits, mps.Config{RecordMemory: true})
		if err := st.ApplyCircuit(c); err != nil {
			b.Fatal(err)
		}
		peak = 0
		for _, s := range st.Ledger {
			if s.Bytes > peak {
				peak = s.Bytes
			}
		}
	}
	b.ReportMetric(float64(peak)/(1<<20), "peak-MiB")
}

// --- Fig. 7: simulation time vs qubit count -------------------------------
// One bench per qubit count via sub-benchmarks; γ=0.5 (the paper's slowest).

func BenchmarkFig7QubitScaling(b *testing.B) {
	for _, m := range []int{16, 32, 64, 128} {
		m := m
		b.Run(benchName("qubits", m), func(b *testing.B) {
			a := circuit.Ansatz{Qubits: m, Layers: 2, Distance: 2, Gamma: 0.5}
			x := benchData(b, 1, m)[0]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				simulateOne(b, a, x, backend.NewSerial())
			}
		})
	}
}

// --- Fig. 8: distributed Gram computation, round-robin --------------------
// Doubling data size with doubling processes; sim wall should stay ≈flat,
// inner wall should ≈double (run both sub-benches and compare).

func BenchmarkFig8RuntimeBreakdown(b *testing.B) {
	for _, step := range []experiments.Fig8Step{{DataSize: 32, Procs: 2}, {DataSize: 64, Procs: 4}} {
		step := step
		b.Run(benchName("n", step.DataSize), func(b *testing.B) {
			rows := benchData(b, step.DataSize, 32)
			q := &kernel.Quantum{Ansatz: circuit.Ansatz{Qubits: 32, Layers: 2, Distance: 1, Gamma: 0.1}}
			b.ReportAllocs()
			var sim, inner time.Duration
			for i := 0; i < b.N; i++ {
				res, err := dist.ComputeGram(q, rows, dist.Options{Procs: step.Procs, Strategy: dist.RoundRobin})
				if err != nil {
					b.Fatal(err)
				}
				sim, inner, _ = res.MaxPhaseTimes()
			}
			b.ReportMetric(sim.Seconds(), "sim-wall-s")
			b.ReportMetric(inner.Seconds(), "inner-wall-s")
		})
	}
}

// --- Figs. 9–10: model quality scaling -------------------------------------
// A single small cell (the full grid is cmd/qmlscaling); reports AUC.

func BenchmarkFig9Fig10AUCScaling(b *testing.B) {
	b.ReportAllocs()
	var auc float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig9Fig10(experiments.QMLParams{
			SampleSizes: []int{40},
			FeatureGrid: []int{12},
		})
		if err != nil {
			b.Fatal(err)
		}
		auc = res.TestAUCAt(40, 12)
	}
	b.ReportMetric(auc, "test-AUC")
}

// --- Table II: quantum kernel grid vs Gaussian -----------------------------

func BenchmarkTable2KernelComparison(b *testing.B) {
	b.ReportAllocs()
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTableII(experiments.TableIIParams{
			Features:  10,
			DataSize:  48,
			Distances: []int{1},
			Gammas:    []float64{0.5},
			Runs:      1,
		})
		if err != nil {
			b.Fatal(err)
		}
		gap = res.Rows[1].Metrics.AUC - res.Rows[0].Metrics.AUC
	}
	b.ReportMetric(gap, "quantum-minus-gaussian-AUC")
}

// --- Table III: depth ablation ---------------------------------------------

func BenchmarkTable3DepthAblation(b *testing.B) {
	b.ReportAllocs()
	var drop float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTableIII(experiments.TableIIIParams{
			Features: 10,
			DataSize: 48,
			Depths:   []int{2, 12},
			Runs:     1,
		})
		if err != nil {
			b.Fatal(err)
		}
		drop = res.Rows[0].Metrics.AUC - res.Rows[1].Metrics.AUC
	}
	b.ReportMetric(drop, "shallow-minus-deep-AUC")
}

// --- Ablations --------------------------------------------------------------

// Truncation-budget sweep: tighter budgets keep more singular values and
// cost more; the default 1e-16 is "virtually noiseless" (paper eq. 8).
func BenchmarkAblationTruncationBudget(b *testing.B) {
	a := circuit.Ansatz{Qubits: 24, Layers: 2, Distance: 3, Gamma: 1.0}
	x := benchData(b, 1, 24)[0]
	c, err := a.BuildRouted(x)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name   string
		budget float64
	}{
		{"budget=1e-16", 1e-16},
		{"budget=1e-8", 1e-8},
		{"budget=1e-4", 1e-4},
		{"budget=1e-2", 1e-2},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			var chi int
			var terr float64
			for i := 0; i < b.N; i++ {
				st := mps.NewZeroState(a.Qubits, mps.Config{TruncationBudget: cfg.budget})
				if err := st.ApplyCircuit(c); err != nil {
					b.Fatal(err)
				}
				chi = st.MaxBond()
				terr = st.TruncationError
			}
			b.ReportMetric(float64(chi), "χ")
			b.ReportMetric(terr, "trunc-err")
		})
	}
}

// SWAP-routing overhead: the same logical circuit at growing interaction
// distance; gate count (and hence runtime) grows with the 2(k−1) SWAPs.
func BenchmarkAblationRoutingOverhead(b *testing.B) {
	x := benchData(b, 1, 24)[0]
	for _, d := range []int{1, 2, 3} {
		d := d
		b.Run(benchName("d", d), func(b *testing.B) {
			a := circuit.Ansatz{Qubits: 24, Layers: 2, Distance: d, Gamma: 0.5}
			b.ReportAllocs()
			var swaps int
			for i := 0; i < b.N; i++ {
				c, err := a.BuildRouted(x)
				if err != nil {
					b.Fatal(err)
				}
				swaps = c.Stats().Swaps
				st := mps.NewZeroState(a.Qubits, mps.Config{})
				if err := st.ApplyCircuit(c); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(swaps), "swaps")
		})
	}
}

// Distribution-strategy ablation: round-robin vs no-messaging total
// simulation cost on the same workload.
func BenchmarkAblationDistStrategies(b *testing.B) {
	rows := benchData(b, 24, 16)
	q := &kernel.Quantum{Ansatz: circuit.Ansatz{Qubits: 16, Layers: 1, Distance: 1, Gamma: 0.5}}
	for _, strat := range []dist.Strategy{dist.NoMessaging, dist.RoundRobin} {
		strat := strat
		b.Run(strat.String(), func(b *testing.B) {
			b.ReportAllocs()
			var simulated int
			for i := 0; i < b.N; i++ {
				res, err := dist.ComputeGram(q, rows, dist.Options{Procs: 4, Strategy: strat})
				if err != nil {
					b.Fatal(err)
				}
				simulated = 0
				for _, p := range res.Procs {
					simulated += p.StatesSimulated
				}
			}
			b.ReportMetric(float64(simulated), "states-simulated")
		})
	}
}

// Transport ablation: the same round-robin Gram over each wire — the chan
// baseline, the cost-modelled simulated network (200µs/message at 512 MiB/s,
// a fast-LAN flavour) and real loopback TCP sockets. ns/op spreads are the
// price of each wire; the comm-wall-ms metric isolates the communication
// phase the transports differ in, and the Gram itself is bit-identical
// across all three (enforced by the metamorphic suite).
func BenchmarkGramTransport(b *testing.B) {
	rows := benchData(b, 24, 16)
	q := &kernel.Quantum{Ansatz: circuit.Ansatz{Qubits: 16, Layers: 1, Distance: 1, Gamma: 0.5}}
	for _, tr := range []dist.Transport{
		dist.ChanTransport{},
		&dist.SimTransport{Latency: 200 * time.Microsecond, MBps: 512},
		dist.TCPTransport{},
	} {
		tr := tr
		b.Run(dist.TransportName(tr), func(b *testing.B) {
			b.ReportAllocs()
			var comm time.Duration
			for i := 0; i < b.N; i++ {
				res, err := dist.ComputeGram(q, rows, dist.Options{Procs: 4, Strategy: dist.RoundRobin, Transport: tr})
				if err != nil {
					b.Fatal(err)
				}
				_, _, comm = res.MaxPhaseTimes()
			}
			b.ReportMetric(float64(comm.Milliseconds()), "comm-wall-ms")
		})
	}
}

// Canonicalization-policy ablation (paper footnote 2): centre maintenance
// costs QR sweeps but keeps truncation optimal; skipping it changes cost and
// (under aggressive budgets) bond dimension.
func BenchmarkAblationCanonicalization(b *testing.B) {
	x := benchData(b, 1, 24)[0]
	a := circuit.Ansatz{Qubits: 24, Layers: 2, Distance: 3, Gamma: 0.8}
	c, err := a.BuildRouted(x)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		skip bool
	}{
		{"canonical", false},
		{"skip", true},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			var chi int
			for i := 0; i < b.N; i++ {
				st := mps.NewZeroState(a.Qubits, mps.Config{SkipCanonicalization: cfg.skip})
				if err := st.ApplyCircuit(c); err != nil {
					b.Fatal(err)
				}
				chi = st.MaxBond()
			}
			b.ReportMetric(float64(chi), "χ")
		})
	}
}

// --- Zero-realloc gate engine -----------------------------------------------

// BenchmarkApplyCircuit isolates the gate-application hot path the fused
// engine rebuilt: one routed feature-map circuit applied to a fresh state,
// with the simulation workspace reused across iterations exactly as the
// kernel's worker loops reuse it across rows. ns/op is the cost of a full
// state materialisation minus circuit construction; allocs/op measures how
// close the engine runs to its zero-realloc steady state (site buffers are
// per-state, so a handful of allocations per site remain).
func BenchmarkApplyCircuit(b *testing.B) {
	a := circuit.Ansatz{Qubits: 24, Layers: 2, Distance: 3, Gamma: 1.0}
	x := benchData(b, 1, 24)[0]
	c, err := a.BuildRouted(x)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		be   func() backend.Backend
	}{
		{"serial", func() backend.Backend { return backend.NewSerial() }},
		{"parallel", func() backend.Backend { return backend.NewParallel(0) }},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			be := cfg.be()
			ws := mps.NewSimWorkspace()
			b.ResetTimer()
			b.ReportAllocs()
			var chi int
			for i := 0; i < b.N; i++ {
				st := mps.NewZeroState(a.Qubits, mps.Config{Backend: be})
				st.AttachWorkspace(ws)
				if err := st.ApplyCircuit(c); err != nil {
					b.Fatal(err)
				}
				st.DetachWorkspace()
				chi = st.MaxBond()
			}
			b.ReportMetric(float64(chi), "χ")
		})
	}
}

// --- State cache & zero-realloc overlap engine ------------------------------

// BenchmarkFitPredictRoundTrip measures the full train→infer pipeline cold
// (fresh framework, empty cache) vs warm (same framework refit: every
// training state is a cache hit and the model's retained handles make
// inference communication-free). The warm/cold ratio is the tentpole's
// headline speedup; the hit-rate metric should read 0 cold and 1 warm.
func BenchmarkFitPredictRoundTrip(b *testing.B) {
	const n, nTest, features = 48, 16, 16
	data := benchData(b, n+nTest, features)
	trainX, testX := data[:n], data[n:]
	y := make([]int, n)
	for i := range y {
		if i%2 == 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	newFramework := func(b *testing.B) *core.Framework {
		fw, err := core.New(core.Options{Features: features, Gamma: 0.5, C: 1, Procs: 2})
		if err != nil {
			b.Fatal(err)
		}
		return fw
	}
	roundTrip := func(b *testing.B, fw *core.Framework) *core.FitReport {
		model, report, err := fw.Fit(trainX, y)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fw.Predict(model, testX); err != nil {
			b.Fatal(err)
		}
		return report
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		var rep *core.FitReport
		for i := 0; i < b.N; i++ {
			rep = roundTrip(b, newFramework(b))
		}
		b.ReportMetric(rep.CacheHitRate, "hit-rate")
	})
	b.Run("warm", func(b *testing.B) {
		fw := newFramework(b)
		roundTrip(b, fw) // populate the cache outside the timer
		b.ResetTimer()
		b.ReportAllocs()
		var rep *core.FitReport
		for i := 0; i < b.N; i++ {
			rep = roundTrip(b, fw)
		}
		b.ReportMetric(rep.CacheHitRate, "hit-rate")
	})
}

// BenchmarkGramFromStates isolates the O(N²) overlap stage: states are
// simulated once outside the timer, so ns/op and allocs/op measure the
// row-band scheduler and the per-worker zero-realloc workspaces alone.
func BenchmarkGramFromStates(b *testing.B) {
	rows := benchData(b, 32, 16)
	q := &kernel.Quantum{Ansatz: circuit.Ansatz{Qubits: 16, Layers: 2, Distance: 2, Gamma: 0.5}}
	states, err := q.States(rows)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = kernel.GramFromStates(states, runtime.GOMAXPROCS(0))
	}
}

// SMO solver cost on a quantum Gram matrix.
func BenchmarkSVMTrain(b *testing.B) {
	rows := benchData(b, 64, 12)
	q := &kernel.Quantum{Ansatz: circuit.Ansatz{Qubits: 12, Layers: 2, Distance: 1, Gamma: 0.5}}
	gram, err := q.Gram(rows)
	if err != nil {
		b.Fatal(err)
	}
	y := make([]int, len(rows))
	for i := range y {
		if i%2 == 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := svm.Train(gram, y, 1.0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Serving: micro-batched inference ---------------------------------------

// BenchmarkServeBatch measures the serving path end to end — bounded queue →
// coalescing window → one ComputeCrossStates per batch → scatter — under
// concurrent single-row requests, so ns/op is the cost per coalesced row as
// clients see it. The rows-per-cross metric reports how many rows each
// underlying kernel computation amortised (higher = better coalescing).
func BenchmarkServeBatch(b *testing.B) {
	const n, nTest, features = 32, 16, 12
	data := benchData(b, n+nTest, features)
	trainX, testX := data[:n], data[n:]
	y := make([]int, n)
	for i := range y {
		if i%2 == 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	fw, err := core.New(core.Options{Features: features, Gamma: 0.5, C: 1, Procs: 2})
	if err != nil {
		b.Fatal(err)
	}
	model, _, err := fw.Fit(trainX, y)
	if err != nil {
		b.Fatal(err)
	}
	s, err := serve.New(fw, model, serve.Config{MaxBatch: 64, QueueDepth: 1024})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			row := testX[i%len(testX)]
			i++
			if _, err := s.Do([][]float64{row}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := s.Stats()
	if st.CrossCalls > 0 {
		b.ReportMetric(float64(st.Rows)/float64(st.CrossCalls), "rows-per-cross")
	}
}

// --- State materialisation scaling and the blocked eigensolver --------------

// BenchmarkStatesScaling reports kernel.States throughput at 1, 2 and 4
// workers on the same row set. The acceptance target is ≥0.75× linear from
// 1→4 workers; on a single-CPU host the rows/s metrics are recorded for
// comparison on multi-core hardware rather than gated here.
func BenchmarkStatesScaling(b *testing.B) {
	rows := benchData(b, 16, 16)
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run(benchName("workers", workers), func(b *testing.B) {
			q := &kernel.Quantum{
				Ansatz:  circuit.Ansatz{Qubits: 16, Layers: 2, Distance: 2, Gamma: 0.5},
				Workers: workers,
			}
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := q.States(rows); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N*len(rows))/elapsed, "rows/s")
			}
		})
	}
}

// BenchmarkBlockedEig exercises the cache-blocked tridiagonal eigensolver
// behind SVDTruncLazy: a 128×64 factor puts the 64×64 Gram block well above
// blockedEigMinDim, so every iteration runs Householder tridiagonalisation +
// implicit-shift QL rather than cyclic Jacobi, then materialises the
// full-rank factors. The workspace is warmed outside the timer, so allocs/op
// reads the solver's steady state.
func BenchmarkBlockedEig(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := linalg.Random(rng, 128, 64)
	var ws linalg.Workspace
	decompose := func() float64 {
		t := linalg.SVDTruncLazy(&ws, a, 1)
		t.Factors(len(t.S))
		return t.S[0]
	}
	decompose()
	b.ResetTimer()
	b.ReportAllocs()
	var s0 float64
	for i := 0; i < b.N; i++ {
		s0 = decompose()
	}
	b.ReportMetric(s0, "σ₀")
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
