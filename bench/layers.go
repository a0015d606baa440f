package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/conformal"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/kernel"
	"repro/internal/mps"
	"repro/internal/obs"
	servehttp "repro/internal/serve/http"
	"repro/internal/statecache"
	"repro/internal/svm"
)

// layerRun is the state of one traced run: the benchmark's own trace, whose
// spans wrap every call into a layer's public functions, and the result the
// per-layer metrics are written to.
type layerRun struct {
	w    workload
	run  runConfig
	res  *result
	root *obs.Span
	cy   cycle // the rows of cycle 0: what set-up trains and serves
}

// span times fn under a child span of the benchmark's trace and returns its
// duration in seconds; an error counts as a failed operation.
func (l *layerRun) span(name string, fn func(sp *obs.Span) error) float64 {
	sp := l.root.Child(name)
	err := fn(sp)
	sp.End()
	l.res.op(err)
	return sp.Duration().Seconds()
}

// runTraced is the --trace 1 run. It replays the workload layer by layer
// from outside — timing calls into each layer's public functions and reading
// the counters it already exports — then runs the real path once more under
// the program's own tracing, folds that tree into self times, and writes
// everything to bench/out/<workload>.trace.json.
func runTraced(w workload, run runConfig) (*result, error) {
	res := newResult()
	in, err := generate(w, run.seed)
	if err != nil {
		return nil, err
	}
	tr := obs.NewTrace(w.name, w.name)
	l := &layerRun{w: w, run: run, res: res, root: tr.Root(), cy: in.window(w, 0)}

	states, testStates, err := l.simulatorLayers()
	if err != nil {
		return nil, err
	}
	gram := l.kernelAndDist(states, testStates)
	l.learnerLayers(gram, kernel.CrossFromStates(testStates, states, runtime.GOMAXPROCS(0)))
	fitS, fitTracedS, err := l.coreLayer()
	if err != nil {
		return nil, err
	}
	reqTraces, err := l.serveLayers(in)
	if err != nil {
		return nil, err
	}
	tr.Root().End()

	self := selfTimes(tr.Snapshot().Spans)
	res.set("core.fit_self_s", "s", self["fit"]/tracedFits)
	res.set("obs.fit_overhead_share", "ratio", fitTracedS/fitS-1)

	outDir := filepath.Join(run.root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(outDir, w.name+".trace.json"))
	if err != nil {
		return nil, err
	}
	if err := obs.WriteChrome(f, append([]*obs.Trace{tr}, reqTraces...)...); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if !run.smoke {
		for _, msg := range designViolations(w, res.Metrics) {
			res.fail(fmt.Errorf("design assertion: %s", msg))
		}
	}
	return res, nil
}

// simulatorLayers replays circuit → mps → linalg for every row of the Fit
// window on a serial backend whose counters the benchmark owns, then the
// overlap, serialisation and state-cache primitives on the resulting states.
func (l *layerRun) simulatorLayers() (states, testStates []*mps.MPS, err error) {
	w, res, X := l.w, l.res, l.cy.X
	n := float64(len(X))
	ansatz := w.ansatz()
	be := backend.NewSerial()
	cfg := mps.Config{Backend: be}

	circs := make([]*circuit.Circuit, len(X))
	buildS := l.span("circuit.build", func(*obs.Span) error {
		for i, x := range X {
			if circs[i], err = ansatz.BuildRouted(x); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	gates2q := 0
	for _, c := range circs {
		gates2q += c.Stats().TwoQubit
	}
	res.set("circuit.build_us_per_row", "us", 1e6*buildS/n)
	res.set("circuit.gates_2q_per_row", "count", float64(gates2q)/n)

	states = make([]*mps.MPS, len(X))
	before := be.Stats().Snapshot()
	applyS := l.span("mps.apply", func(*obs.Span) error {
		for i, c := range circs {
			st := mps.NewZeroState(w.qubits, cfg)
			if err = st.ApplyCircuit(c); err != nil {
				return err
			}
			st.CompactSites()
			states[i] = st
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	after := be.Stats().Snapshot()
	svdS := (after.SVDTime - before.SVDTime).Seconds()
	mmS := (after.MatMulTime - before.MatMulTime).Seconds()
	qrS := (after.QRTime - before.QRTime).Seconds()
	res.set("linalg.svd_s", "s", svdS)
	res.set("linalg.svd_ops", "count", float64(after.SVDOps-before.SVDOps))
	res.set("linalg.matmul_s", "s", mmS)
	res.set("linalg.matmul_ops", "count", float64(after.MatMulOps-before.MatMulOps))
	res.set("linalg.qr_s", "s", qrS)
	res.set("linalg.qr_ops", "count", float64(after.QROps-before.QROps))
	res.set("linalg.share_of_sim", "ratio", (svdS+mmS+qrS)/applyS)
	res.set("mps.apply_ms_per_row", "ms", 1e3*applyS/n)
	res.set("mps.self_s", "s", applyS-svdS-mmS-qrS)
	maxBond, bytesTotal := 0, int64(0)
	for _, st := range states {
		maxBond = max(maxBond, st.MaxBond())
		bytesTotal += st.MemoryBytes()
	}
	res.set("mps.max_bond", "count", float64(maxBond))
	res.set("mps.state_kb_mean", "KB", float64(bytesTotal)/n/1e3)

	const pairs = 2000
	rng := rand.New(rand.NewSource(l.run.seed))
	ws := mps.NewWorkspace()
	overlapS := l.span("mps.overlap", func(*obs.Span) error {
		for p := 0; p < pairs; p++ {
			if v := ws.Overlap(states[rng.Intn(len(states))], states[rng.Intn(len(states))]); !(v >= 0 && v <= 1+1e-9) {
				return fmt.Errorf("overlap %v outside [0,1]", v)
			}
		}
		return nil
	})
	res.set("mps.overlap_us", "us", 1e6*overlapS/pairs)

	blobs := make([][]byte, len(states))
	marshalS := l.span("mps.marshal", func(*obs.Span) error {
		for i, st := range states {
			if blobs[i], err = st.MarshalBinary(); err != nil {
				return err
			}
		}
		return nil
	})
	blobBytes := 0
	unmarshalS := l.span("mps.unmarshal", func(*obs.Span) error {
		for i, blob := range blobs {
			blobBytes += len(blob)
			back, err := mps.UnmarshalBinary(blob, cfg)
			if err != nil {
				return err
			}
			if back.MaxBond() != states[i].MaxBond() {
				return fmt.Errorf("state %d: bond %d after round trip, was %d", i, back.MaxBond(), states[i].MaxBond())
			}
		}
		return nil
	})
	res.set("mps.marshal_us_per_state", "us", 1e6*marshalS/n)
	res.set("mps.unmarshal_us_per_state", "us", 1e6*unmarshalS/n)
	res.set("mps.state_bytes_mean", "B", float64(blobBytes)/n)

	// The cache primitives take nanoseconds; repeat the row set until each
	// is timed over at least cacheOps operations.
	const cacheOps = 20000
	reps := cacheOps/len(X) + 1
	ops := float64(reps * len(X))
	q := &kernel.Quantum{Ansatz: ansatz, Config: cfg}
	fp := q.Fingerprint()
	cache := statecache.New(1 << 40)
	keys := make([]statecache.Key, len(X))
	keyS := l.span("statecache.keyfor", func(*obs.Span) error {
		for r := 0; r < reps; r++ {
			for i, x := range X {
				keys[i] = statecache.KeyFor(fp, x)
			}
		}
		return nil
	})
	putS := l.span("statecache.put", func(*obs.Span) error {
		for r := 0; r < reps; r++ {
			for i, k := range keys {
				cache.Put(k, states[i])
			}
		}
		return nil
	})
	getS := l.span("statecache.get", func(*obs.Span) error {
		for r := 0; r < reps; r++ {
			for i, k := range keys {
				if st, ok := cache.Get(k); !ok || st != states[i] {
					return fmt.Errorf("cache lost row %d", i)
				}
			}
		}
		return nil
	})
	res.set("statecache.keyfor_ns", "ns", 1e9*keyS/ops)
	res.set("statecache.put_ns", "ns", 1e9*putS/ops)
	res.set("statecache.get_hit_ns", "ns", 1e9*getS/ops)

	l.span("mps.apply_test", func(*obs.Span) error {
		testStates, err = q.States(l.cy.T)
		return err
	})
	return states, testStates, err
}

// kernelAndDist times the kernel layer's batched paths and the distributed
// Gram under the workload's process count and wire, and validates every Gram
// they produce. It returns the distributed Gram.
func (l *layerRun) kernelAndDist(states, testStates []*mps.MPS) [][]float64 {
	w, res := l.w, l.res
	workers := runtime.GOMAXPROCS(0)
	q := &kernel.Quantum{Ansatz: w.ansatz()}
	statesS := l.span("kernel.states", func(*obs.Span) error {
		_, err := q.States(l.cy.X)
		return err
	})
	var gram [][]float64
	gramS := l.span("kernel.gram_from_states", func(*obs.Span) error {
		gram = kernel.GramFromStates(states, workers)
		return validateGram(gram)
	})
	crossS := l.span("kernel.cross_from_states", func(*obs.Span) error {
		kernel.CrossFromStates(testStates, states, workers)
		return nil
	})
	n, t := len(states), len(testStates)
	res.set("kernel.states_s", "s", statesS)
	res.set("kernel.gram_from_states_s", "s", gramS)
	res.set("kernel.cross_from_states_s", "s", crossS)
	res.set("kernel.overlaps_per_s", "1/s", float64(n*(n+1)/2+n*t)/(gramS+crossS))
	res.set("kernel.band_width", "count", float64(q.BandWidth()))

	opts := w.options()
	dq := &kernel.Quantum{Ansatz: q.Ansatz, Cache: statecache.New(core.DefaultCacheBytes)}
	var dres *dist.Result
	l.span("dist.compute_gram", func(sp *obs.Span) (err error) {
		dres, err = dist.ComputeGram(dq, l.cy.X, dist.Options{Procs: opts.Procs, Strategy: opts.Strategy, Transport: opts.Transport, Span: sp})
		if err != nil {
			return err
		}
		return validateGram(dres.Gram)
	})
	if dres == nil {
		return gram
	}
	sim, inner, comm := dres.MaxPhaseTimes()
	var busySum, busyMax time.Duration
	for _, p := range dres.Procs {
		busy := p.SimTime + p.InnerTime
		busySum += busy
		busyMax = max(busyMax, busy)
	}
	res.set("dist.gram_wall_s", "s", dres.Wall.Seconds())
	res.set("dist.sim_s_max", "s", sim.Seconds())
	res.set("dist.inner_s_max", "s", inner.Seconds())
	res.set("dist.comm_s_max", "s", comm.Seconds())
	res.set("dist.bytes_sent", "B", float64(dres.TotalBytes()))
	res.set("dist.messages", "count", float64(dres.TotalMessages()))
	res.set("dist.imbalance", "ratio", float64(busyMax)*float64(len(dres.Procs))/float64(busySum))
	res.set("dist.overhead_s", "s", dres.Wall.Seconds()-statesS-gramS)
	res.set("dist.retries", "count", float64(dres.TotalRetries()))
	res.set("dist.recovered_rows", "count", float64(dres.TotalRecoveredRows()))
	if dres.TotalRetries() != 0 || dres.TotalRecoveredRows() != 0 {
		res.fail(fmt.Errorf("healthy wire retried %d sends and recovered %d rows", dres.TotalRetries(), dres.TotalRecoveredRows()))
	}
	return dres.Gram
}

// validateGram holds a Gram to the kernel's invariants. The PSD check
// diagonalises, so on a large Gram it takes the leading principal block: a
// principal submatrix of a PSD matrix must itself be PSD.
func validateGram(k [][]float64) error {
	const psdRows = 128
	if err := kernel.ValidateGram(k, 1e-8, len(k) <= psdRows); err != nil || len(k) <= psdRows {
		return err
	}
	block := make([][]float64, psdRows)
	for i := range block {
		block[i] = k[i][:psdRows]
	}
	return kernel.ValidateGram(block, 1e-8, true)
}

// learnerLayers times the SVM (the C sweep core.Fit runs, the final training,
// scoring) and, on a calibrated workload, the conformal predictor, on the
// workload's own Gram and cross kernel.
func (l *layerRun) learnerLayers(gram, cross [][]float64) {
	res, y := l.res, l.cy.y
	// The same deterministic 80/20 lattice core.Fit selects C on.
	var fitIdx, valIdx []int
	for i := range y {
		if i%5 == 4 {
			valIdx = append(valIdx, i)
		} else {
			fitIdx = append(fitIdx, i)
		}
	}
	sub := func(rows, cols []int) [][]float64 {
		out := make([][]float64, len(rows))
		for a, i := range rows {
			out[a] = make([]float64, len(cols))
			for b, j := range cols {
				out[a][b] = gram[i][j]
			}
		}
		return out
	}
	labels := func(idx []int) []int {
		out := make([]int, len(idx))
		for a, i := range idx {
			out[a] = y[i]
		}
		return out
	}
	bestC := 1.0
	selectS := l.span("svm.select_c", func(*obs.Span) (err error) {
		if len(valIdx) < 2 {
			return nil // core.Fit falls back to C=1 on a degenerate split too
		}
		_, _, bestC, err = svm.TrainBestC(sub(fitIdx, fitIdx), labels(fitIdx), sub(valIdx, fitIdx), labels(valIdx), nil, 0)
		return err
	})
	var model *svm.Model
	trainS := l.span("svm.train", func(*obs.Span) (err error) {
		model, err = svm.Train(gram, y, bestC, 0)
		return err
	})
	if model == nil {
		return
	}
	var scores []float64
	decisionS := l.span("svm.decision", func(*obs.Span) (err error) {
		scores, err = model.DecisionBatch(cross)
		return err
	})
	res.set("svm.select_c_s", "s", selectS)
	res.set("svm.train_s", "s", trainS)
	res.set("svm.support_vectors", "count", float64(len(model.SupportVectors())))
	res.set("svm.decision_us_per_row", "us", 1e6*decisionS/float64(len(cross)))
	auc := 0.0
	if met, err := svm.Evaluate(scores, l.cy.Ty); err == nil {
		auc = met.AUC
	}
	res.set("svm.test_auc", "ratio", auc)

	// A score-only workload bypasses the conformal layer: its time there is 0.
	res.set("conformal.calibrate_us", "us", 0)
	res.set("conformal.predict_ns_per_row", "ns", 0)
	if l.w.calibFrac == 0 {
		return
	}
	var pred *conformal.Predictor
	calibrateS := l.span("conformal.calibrate", func(*obs.Span) (err error) {
		pred, err = conformal.Calibrate(scores, l.cy.Ty, conformal.DefaultAlpha)
		return err
	})
	if pred == nil {
		return
	}
	const reps = 1000
	predictS := l.span("conformal.predict", func(*obs.Span) error {
		for r := 0; r < reps; r++ {
			if sets := pred.PredictBatch(scores); len(sets) != len(scores) {
				return fmt.Errorf("%d prediction sets for %d scores", len(sets), len(scores))
			}
		}
		return nil
	})
	res.set("conformal.calibrate_us", "us", 1e6*calibrateS)
	res.set("conformal.predict_ns_per_row", "ns", 1e9*predictS/float64(reps*len(scores)))
}

// tracedFits is how many untraced/traced Fit pairs the core layer times.
const tracedFits = 3

// coreLayer times the real Fit untraced (with heap counters read around the
// first) and under the benchmark's trace, so the program's own spans nest
// below, alternating the two and taking each side's median — one Fit apiece
// would make the tracing overhead a coin toss. Then the traced Predict and
// the model codec on a buffer. It returns both Fit walls.
func (l *layerRun) coreLayer() (fitS, fitTracedS float64, err error) {
	w, res := l.w, l.res
	var untraced, traced []float64
	var fw *core.Framework
	var model *core.Model
	for i := 0; i < tracedFits; i++ {
		if fw, err = core.New(w.options()); err != nil {
			return 0, 0, err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		_, _, err = fw.Fit(l.cy.X, l.cy.y)
		untraced = append(untraced, time.Since(t0).Seconds())
		runtime.ReadMemStats(&ms1)
		res.op(err)
		if err != nil {
			return 0, 0, err
		}
		if i == 0 {
			res.set("core.alloc_mb_per_fit", "MB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
			res.set("core.allocs_per_fit", "count", float64(ms1.Mallocs-ms0.Mallocs))
		}

		if fw, err = core.New(w.options()); err != nil {
			return 0, 0, err
		}
		traced = append(traced, l.span("core.fit", func(sp *obs.Span) (err error) {
			model, _, err = fw.FitCtx(obs.ContextWithSpan(context.Background(), sp), l.cy.X, l.cy.y)
			return err
		}))
		if model == nil {
			return 0, 0, fmt.Errorf("traced fit failed")
		}
	}
	fitS, fitTracedS = median(untraced), median(traced)
	l.span("core.predict", func(sp *obs.Span) error {
		scores, err := fw.PredictCtx(obs.ContextWithSpan(context.Background(), sp), model, l.cy.T)
		if err != nil {
			return err
		}
		return checkScores(scores, len(l.cy.T))
	})

	var buf bytes.Buffer
	encodeS := l.span("core.encode", func(*obs.Span) error { return model.Encode(&buf) })
	decodeS := l.span("core.decode", func(*obs.Span) error {
		_, _, err := core.DecodeModel(bytes.NewReader(buf.Bytes()), nil)
		return err
	})
	res.set("core.encode_s", "s", encodeS)
	res.set("core.decode_s", "s", decodeS)
	return fitS, fitTracedS, nil
}

// serveLayers drives the same request stream three ways, a quarter of the
// run's seconds each — over HTTP untraced (cache and batcher counters, the
// latency base), in process through the batcher (what HTTP adds), and over
// HTTP with the program's tracer on (what tracing adds) — and returns some
// of the program's request traces for the trace file.
func (l *layerRun) serveLayers(in *inputs) ([]*obs.Trace, error) {
	w, res := l.w, l.res
	dur := time.Duration(l.run.seconds * float64(time.Second) / 4)

	st, err := setUp(w, l.run.seed, l.run.dir)
	if err != nil {
		return nil, err
	}
	defer func() { st.srv.close() }()
	openS := l.span("serve_registry.open", func(*obs.Span) error {
		srv, err := startServer(w, st.modelPath, nil)
		if err == nil {
			srv.close()
		}
		return err
	})
	reloadS := l.span("serve_registry.reload", func(*obs.Span) error {
		rr, err := st.srv.reg.Reload(modelName, true)
		if err == nil && !rr.Swapped {
			err = fmt.Errorf("forced reload did not swap: %s", rr.Error)
		}
		return err
	})
	res.set("serve_registry.open_ms", "ms", 1e3*openS)
	res.set("serve_registry.reload_ms", "ms", 1e3*reloadS)
	if err := touchPool(w, st); err != nil {
		return nil, err
	}

	s0 := st.srv.stats()
	var seg httpSegment
	l.span("serve_http.segment", func(*obs.Span) error {
		seg = driveHTTP(w, in, res, dur, overHTTP(st.srv.url))
		return nil
	})
	s1 := st.srv.stats()
	requests, batches := float64(s1.Requests-s0.Requests), float64(s1.Batches-s0.Batches)
	hits, misses := s1.Cache.Hits-s0.Cache.Hits, s1.Cache.Misses-s0.Cache.Misses
	res.set("statecache.hits", "count", float64(hits))
	res.set("statecache.misses", "count", float64(misses))
	res.set("statecache.hit_ratio", "ratio", float64(hits)/float64(max(hits+misses, 1)))
	res.set("statecache.evictions", "count", float64(s1.Cache.Evictions-s0.Cache.Evictions))
	res.set("statecache.bytes_mb", "MB", float64(s1.Cache.Bytes)/1e6)
	res.set("serve.queue_wait_ms_mean", "ms", 1e3*(s1.WaitWall-s0.WaitWall).Seconds()/max(requests, 1))
	res.set("serve.predict_ms_per_batch", "ms", 1e3*(s1.PredictWall-s0.PredictWall).Seconds()/max(batches, 1))
	res.set("serve.rows_per_batch", "count", float64(s1.Rows-s0.Rows)/max(batches, 1))
	res.set("serve.batches", "count", batches)
	res.set("serve.rejected", "count", float64(s1.Rejected-s0.Rejected))
	res.set("serve.comm_messages", "count", float64(s1.Comm.Messages))
	httpP50 := median(seg.latMS)
	status5xx := 0
	for code, n := range seg.status {
		if code >= 500 {
			status5xx += n
		}
	}
	answered := float64(max(len(seg.latMS), 1))
	res.set("serve_http.req_bytes", "B", float64(seg.reqBytes)/answered)
	res.set("serve_http.resp_bytes", "B", float64(seg.respBytes)/answered)
	res.set("serve_http.status_429", "count", float64(seg.status[http.StatusTooManyRequests]))
	res.set("serve_http.status_5xx", "count", float64(status5xx))
	res.set("serve_http.requests", "count", float64(len(seg.latMS)))
	res.set("machine.dilation", "ratio", median(seg.dilation))

	inst, err := st.srv.reg.Get(modelName)
	if err != nil {
		return nil, err
	}
	var direct httpSegment
	l.span("serve.segment", func(*obs.Span) error {
		direct = driveHTTP(w, in, res, dur, func(_ int, rows [][]float64) (*reply, error) {
			t0 := time.Now()
			scores, preds, err := inst.Batcher.DoFullCtx(context.Background(), rows)
			rp := &reply{status: http.StatusOK, latency: time.Since(t0)}
			if err != nil {
				return nil, err
			}
			rp.body = servehttp.PredictResponse{Scores: scores, Labels: make([]int, len(scores)), Calibrated: preds != nil, Predictions: make([]servehttp.Prediction, len(preds))}
			return rp, checkReply(&rp.body, len(rows))
		})
		return nil
	})
	res.set("serve.do_p50_ms", "ms", median(direct.latMS))
	res.set("serve_http.overhead_ms", "ms", httpP50-median(direct.latMS))

	// The program's own tracing: a fresh server with a tracer on the router
	// and the batcher, the same stream again.
	st.srv.close()
	tracer := obs.NewTracer(256)
	if st.srv, err = startServer(w, st.modelPath, tracer); err != nil {
		return nil, err
	}
	if err := touchPool(w, st); err != nil {
		return nil, err
	}
	var traced httpSegment
	l.span("serve_http.segment_traced", func(*obs.Span) error {
		traced = driveHTTP(w, in, res, dur, overHTTP(st.srv.url))
		return nil
	})
	res.set("obs.http_overhead_share", "ratio", median(traced.latMS)/httpP50-1)
	var traces []*obs.Trace
	spans := 0
	for _, id := range tracer.IDs() {
		if t, ok := tracer.Get(id); ok {
			traces = append(traces, t)
			spans += len(t.Snapshot().Spans)
		}
	}
	res.set("obs.spans_per_op", "count", float64(spans)/float64(max(len(traces), 1)))
	const keep = 32 // enough to read a request's shape without a huge file
	return traces[max(len(traces)-keep, 0):], nil
}

// designViolations checks that each workload still exercises the layer it
// was built to exercise and bypasses the one its twin exercises. A benchmark
// whose pairing has silently drifted would report "no change" for the wrong
// reason.
func designViolations(w workload, m map[string]metric) (out []string) {
	v := func(name string) float64 { return m[name].Value }
	check := func(ok bool, format string, args ...any) {
		if !ok {
			out = append(out, w.name+": "+fmt.Sprintf(format, args...))
		}
	}
	// Shares of the distributed Gram — all but a sliver of Fit — taken from
	// one ComputeGram call, so numerator and denominator saw the same machine.
	linalgShare := v("linalg.share_of_sim") * v("dist.sim_s_max") / v("dist.gram_wall_s")
	overlapShare := v("dist.inner_s_max") / v("dist.gram_wall_s")
	switch w.name {
	case "train_deep":
		check(linalgShare >= 0.6, "linalg is %.2f of the Gram, want ≥ 0.6 (simulation-bound)", linalgShare)
		check(v("dist.bytes_sent") == 0, "single-rank Gram sent %v bytes", v("dist.bytes_sent"))
	case "train_wide":
		check(linalgShare <= 0.2, "linalg is %.2f of the Gram, want ≤ 0.2 (overlap-bound)", linalgShare)
		check(overlapShare >= 0.5, "overlaps are %.2f of the Gram, want ≥ 0.5", overlapShare)
		check(v("dist.bytes_sent") > 0, "two-rank Gram sent no bytes")
	}
	if w.pool > 0 {
		check(v("statecache.hit_ratio") >= 0.95, "pooled requests hit the cache %.3f of the time, want ≥ 0.95", v("statecache.hit_ratio"))
	} else {
		check(v("statecache.hit_ratio") <= 0.05, "never-repeated requests hit the cache %.3f of the time, want ≤ 0.05", v("statecache.hit_ratio"))
	}
	if w.name == "serve_fresh" {
		check(v("statecache.evictions") > 0, "a %d-byte cache evicted nothing under never-repeated rows", w.cacheBytes)
	}
	check(v("serve.comm_messages") == 0, "serving sent %v shard messages: the retained-state path was lost", v("serve.comm_messages"))
	check(v("serve_http.status_5xx") == 0 && v("serve.rejected") == 0, "served %v 5xx and rejected %v", v("serve_http.status_5xx"), v("serve.rejected"))
	return out
}
