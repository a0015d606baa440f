// Package core is the top-level facade of the quantum kernel framework — the
// paper's primary contribution assembled from its substrates: it wires the
// feature-map ansatz (internal/circuit), the MPS simulator (internal/mps),
// the kernel machinery (internal/kernel), the distributed runtime
// (internal/dist) and the SVM (internal/svm) into a single train/predict
// pipeline mirroring the workflow of section III-B:
//
//	fw := core.New(core.Options{Features: 50, Layers: 2, Distance: 1, Gamma: 0.5})
//	model, report, err := fw.Fit(trainX, trainY)
//	scores, err := fw.Predict(model, testX)
//
// Data passed to Fit/Predict must already be rescaled into the (0,2)
// interval (see internal/dataset.PrepareSplit, which performs the paper's
// preprocessing).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/conformal"
	"repro/internal/conformal/sdt"
	"repro/internal/dist"
	"repro/internal/kernel"
	"repro/internal/mps"
	"repro/internal/obs"
	"repro/internal/statecache"
	"repro/internal/svm"
)

// DefaultCacheBytes is the default χ-aware state-cache budget (256 MiB):
// roughly 10⁵ low-χ training states, or a few hundred at the paper's
// largest bond dimensions.
const DefaultCacheBytes int64 = 256 << 20

// Options configures the framework.
type Options struct {
	// Features is the data dimension; one qubit per feature.
	Features int
	// Layers is the ansatz repetition count r (default 2).
	Layers int
	// Distance is the qubit interaction distance d (default 1).
	Distance int
	// Gamma is the kernel bandwidth γ (default 0.1).
	Gamma float64
	// C is the SVM box constraint; 0 sweeps the paper's grid [0.01, 4] and
	// keeps the best model by training-kernel AUC.
	C float64
	// Procs is the number of simulated distributed processes for Gram
	// computation (default 1 = single process).
	Procs int
	// Strategy selects the distribution scheme (default RoundRobin).
	Strategy dist.Strategy
	// Transport selects the wire carrying shard messages between the
	// distributed processes (nil = dist.ChanTransport, the zero-cost
	// in-process channels). The kernel matrices are transport-independent;
	// only the communication instrumentation changes.
	Transport dist.Transport
	// CacheBytes bounds the χ-aware simulated-state cache shared by Fit
	// and Predict (0 selects DefaultCacheBytes; negative disables caching
	// entirely). The budget is charged by actual MPS payload, so it adapts
	// to the ansatz's bond dimension. A negative value is the full
	// memory-for-compute opt-out: it also stops Fit from retaining the
	// training-state handles on the Model, so each Predict simulates the
	// kept training rows again and drops their states when it returns,
	// instead of pinning them in memory.
	CacheBytes int64
	// CalibFrac enables conformal calibration: the fraction of training
	// rows Fit holds out (deterministically, every ⌊1/CalibFrac⌋-th row) as
	// the split-conformal calibration partition. The SVM is trained on the
	// remaining rows only, the calibration rows' decision scores build a
	// conformal.Predictor stored on the Model, and PredictSets then returns
	// prediction sets with coverage ≥ 1−Alpha. 0 disables calibration (the
	// score-only pipeline, unchanged); valid values lie in (0, 0.5].
	CalibFrac float64
	// Alpha is the conformal miscoverage rate α (target coverage 1−α).
	// Used only when CalibFrac > 0; 0 selects conformal.DefaultAlpha (0.1).
	Alpha float64
}

func (o Options) withDefaults() Options {
	if o.Layers == 0 {
		o.Layers = 2
	}
	if o.Distance == 0 {
		o.Distance = 1
	}
	if o.Gamma == 0 {
		o.Gamma = 0.1
	}
	if o.Procs == 0 {
		o.Procs = 1
	}
	if o.CalibFrac > 0 && o.Alpha == 0 {
		o.Alpha = conformal.DefaultAlpha
	}
	return o
}

// Framework is a configured quantum-kernel classification pipeline.
type Framework struct {
	opts Options
	// cacheBudget is the resolved byte budget (Options.CacheBytes with the
	// zero-means-default rule applied; negative = caching and handle
	// retention disabled).
	cacheBudget int64
	q           *kernel.Quantum

	// commMu guards comm and rowCosts, the cumulative wire activity and
	// per-row materialisation costs of every distributed kernel computation
	// this framework has run (Fit and Predict).
	commMu   sync.Mutex
	comm     CommStats
	rowCosts RowCostSummary
}

// RowCostSummary condenses measured per-row state-materialisation wall-clock
// (dist.Result.ObservedRowCosts) into the moments an operator — and the
// ROADMAP's self-tuning distribution item — needs: how many rows were
// measured, the spread, and the total. Served in /stats and narrated in the
// FitReport.
type RowCostSummary struct {
	Count int           `json:"count"`
	Min   time.Duration `json:"min"`
	Mean  time.Duration `json:"mean"`
	Max   time.Duration `json:"max"`
	Total time.Duration `json:"total"`
}

// SummarizeRowCosts folds observed per-row costs into a summary, skipping
// zero entries (rows another rank owned, or never measured).
func SummarizeRowCosts(costs []time.Duration) RowCostSummary {
	var s RowCostSummary
	for _, c := range costs {
		if c <= 0 {
			continue
		}
		if s.Count == 0 || c < s.Min {
			s.Min = c
		}
		if c > s.Max {
			s.Max = c
		}
		s.Total += c
		s.Count++
	}
	if s.Count > 0 {
		s.Mean = s.Total / time.Duration(s.Count)
	}
	return s
}

// merge folds another summary into s (cumulative accounting across
// computations).
func (s *RowCostSummary) merge(o RowCostSummary) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 || o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	s.Total += o.Total
	s.Count += o.Count
	s.Mean = s.Total / time.Duration(s.Count)
}

// CommStats aggregates the distributed-wire activity of a framework: how
// many kernel computations ran, what they sent, and the summed per-process
// communication wall-clock. Exposed by the serving layer's /stats and
// /metrics so an operator sees what the configured transport is costing.
type CommStats struct {
	// Transport is the flag-style name of the configured wire.
	Transport string `json:"transport"`
	// Computations counts distributed Gram/cross computations run.
	Computations int64 `json:"computations"`
	// Messages and Bytes total the shard messages and their framed wire
	// volume across all computations.
	Messages int64 `json:"messages"`
	Bytes    int64 `json:"bytes"`
	// CommWall is the summed per-process communication wall-clock.
	CommWall time.Duration `json:"comm_wall"`
}

// New validates the options and builds a framework.
func New(opts Options) (*Framework, error) {
	opts = opts.withDefaults()
	ansatz := circuit.Ansatz{
		Qubits:   opts.Features,
		Layers:   opts.Layers,
		Distance: opts.Distance,
		Gamma:    opts.Gamma,
	}
	if err := ansatz.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if opts.CalibFrac < 0 || opts.CalibFrac > 0.5 {
		return nil, fmt.Errorf("core: CalibFrac must lie in (0, 0.5] (0 disables calibration), got %v", opts.CalibFrac)
	}
	if opts.CalibFrac > 0 && (!(opts.Alpha > 0 && opts.Alpha < 1) || math.IsNaN(opts.Alpha)) {
		return nil, fmt.Errorf("core: Alpha must lie in (0,1), got %v", opts.Alpha)
	}
	cfg := mps.Config{}
	// Resolve the effective budget once; cacheBudget < 0 means the full
	// memory-for-compute opt-out (no cache, no retained handles).
	cacheBudget := opts.CacheBytes
	if cacheBudget == 0 {
		cacheBudget = DefaultCacheBytes
	}
	var cache *statecache.Cache
	if cacheBudget > 0 {
		cache = statecache.New(cacheBudget)
	}
	return &Framework{
		opts:        opts,
		cacheBudget: cacheBudget,
		q:           &kernel.Quantum{Ansatz: ansatz, Config: cfg, Cache: cache},
		comm:        CommStats{Transport: dist.TransportName(opts.Transport)},
	}, nil
}

// distOptions maps the framework's options onto one distributed computation,
// parented under sp for tracing (nil = untraced).
func (f *Framework) distOptions(sp *obs.Span) dist.Options {
	return dist.Options{
		Procs:     f.opts.Procs,
		Strategy:  f.opts.Strategy,
		Transport: f.opts.Transport,
		Span:      sp,
	}
}

// recordComm folds one distributed computation's wire activity into the
// framework's cumulative counters.
func (f *Framework) recordComm(res *dist.Result) {
	f.commMu.Lock()
	defer f.commMu.Unlock()
	f.comm.Computations++
	f.comm.Messages += int64(res.TotalMessages())
	f.comm.Bytes += res.TotalBytes()
	f.comm.CommWall += res.TotalCommTime()
	f.rowCosts.merge(SummarizeRowCosts(res.ObservedRowCosts))
}

// RowCostStats snapshots the cumulative per-row materialisation cost summary
// across every kernel computation this framework has run.
func (f *Framework) RowCostStats() RowCostSummary {
	f.commMu.Lock()
	defer f.commMu.Unlock()
	return f.rowCosts
}

// CommStats snapshots the framework's cumulative distributed-wire counters.
func (f *Framework) CommStats() CommStats {
	f.commMu.Lock()
	defer f.commMu.Unlock()
	return f.comm
}

// CacheStats snapshots the framework's state-cache counters; the zero Stats
// when caching is disabled.
func (f *Framework) CacheStats() statecache.Stats {
	return f.q.Cache.Stats()
}

// Options returns the (defaulted) options the framework was built with.
func (f *Framework) Options() Options {
	return f.opts
}

// Model bundles the trained SVM with the training inputs needed at
// inference time. A score-only model keeps only the training rows the
// decision function reads: those with α ≠ 0, in their original order.
// SVM.Alpha, SVM.Y, TrainX, TrainY and States are aligned on them, so a
// served row costs one overlap per kept row and not one per row the SVM was
// trained on (a model whose α are all 0 keeps row 0, and decides B). A
// calibrated model keeps every proper-training row (see pruneRows).
type Model struct {
	SVM *svm.Model
	// TrainX / TrainY are the kept training rows (already rescaled into
	// (0,2)) and their ±1 labels.
	TrainX [][]float64
	TrainY []int
	// States are the retained MPS handles of the kept training rows — the
	// paper's "store the MPS" option. While present, Predict computes the
	// inference kernel directly against them (zero training-set
	// re-simulation). Nil when Options.CacheBytes is negative (the
	// memory-bounded opt-out) or when their payload alone exceeds the
	// budget. Predict then materialises the kept rows' states through the
	// state cache for that call only and computes the same
	// communication-free kernel against them.
	States []*mps.MPS
	// Conformal is the split-conformal set predictor calibrated during Fit
	// when Options.CalibFrac > 0; nil on a score-only model. When present,
	// TrainX/TrainY/States hold the whole proper-training subset, α = 0 rows
	// included (the SVM never saw the calibration rows).
	Conformal *conformal.Predictor

	// opts and fingerprint capture the training context for persistence:
	// Save embeds them so LoadModel can rebuild an equivalent Framework and
	// verify the simulation context did not drift. Set by Fit; zero on a
	// hand-assembled Model (which Save therefore rejects).
	opts        Options
	fingerprint string
}

// Fingerprint returns the kernel simulation-context fingerprint the model
// was trained under (empty on a hand-assembled model). The serving registry
// exposes it per model so operators can tell which training context each
// resident model carries, and whether a hot reload actually swapped it.
func (m *Model) Fingerprint() string { return m.fingerprint }

// Calibrated reports whether the model carries a conformal predictor and can
// serve prediction sets (PredictSets); false on score-only models, including
// every model trained or persisted before calibration existed.
func (m *Model) Calibrated() bool { return m != nil && m.Conformal != nil }

// StatesBytes is the total payload of the retained training-state handles
// (0 when the model re-simulates training rows on demand).
func (m *Model) StatesBytes() int64 {
	var total int64
	for _, st := range m.States {
		total += st.MemoryBytes()
	}
	return total
}

// MaxBond is the largest bond dimension χ across the retained training
// states (0 when none are resident) — the size driver of both state-cache
// payload and per-row simulation cost, surfaced in the registry's model
// listing.
func (m *Model) MaxBond() int {
	max := 0
	for _, st := range m.States {
		if b := st.MaxBond(); b > max {
			max = b
		}
	}
	return max
}

// FitReport describes the training run.
type FitReport struct {
	GramWall    time.Duration
	SimWall     time.Duration
	InnerWall   time.Duration
	CommWall    time.Duration
	BytesSent   int64
	BestC       float64
	TrainAUC    float64
	SupportVecs int
	// CacheHits / CacheMisses count training-state requests served by the
	// state cache vs simulated during this Fit; CacheHitRate is their
	// ratio (1.0 on a fully warm refit, 0 with caching disabled).
	CacheHits    int
	CacheMisses  int
	CacheHitRate float64
	// RowCosts summarises the measured per-row state-materialisation
	// wall-clock of this Fit's Gram computation (the EstimateRowCost
	// calibration ground truth).
	RowCosts RowCostSummary
	// Calibrated marks a Fit that held out a conformal calibration
	// partition (Options.CalibFrac > 0). The remaining fields below are
	// meaningful only when it is set.
	Calibrated bool
	// Alpha is the conformal miscoverage rate the model was calibrated at;
	// CalibRows the held-out partition size.
	Alpha     float64
	CalibRows int
	// CalibCoverage evaluates the calibrated sets on the calibration
	// partition itself — a sanity readout (coverage there is ≥ 1−α by
	// construction), narrated by the trainer alongside held-out coverage.
	CalibCoverage conformal.CoverageReport
	// SDT scores the confidence channel on the calibration partition as a
	// type-2 signal-detection task (does confidence discriminate correct
	// from incorrect point predictions?). SDTValid is false when the
	// partition was degenerate for SDT (e.g. the SVM got every calibration
	// row right), in which case SDT is the zero Report, not an error.
	SDT      sdt.Report
	SDTValid bool
}

// Fit computes the training Gram matrix with the configured distribution
// strategy and trains the SVM. Labels are ±1.
func (f *Framework) Fit(X [][]float64, y []int) (*Model, *FitReport, error) {
	return f.FitCtx(context.Background(), X, y)
}

// FitCtx is Fit under a context: when the context carries a span
// (obs.ContextWithSpan), the training run records its trace under it — a fit
// span with gram and svm_train phases, one child per distributed rank, and
// per-row simulation/cache spans below those.
func (f *Framework) FitCtx(ctx context.Context, X [][]float64, y []int) (*Model, *FitReport, error) {
	if len(X) != len(y) {
		return nil, nil, fmt.Errorf("core: %d rows for %d labels", len(X), len(y))
	}
	fitSp := obs.SpanFromContext(ctx).Child("fit")
	fitSp.SetAttr("rows", len(X))
	defer fitSp.End()
	gramSp := fitSp.Child("gram")
	gramSp.SetAttr("procs", f.opts.Procs)
	gramSp.SetAttr("strategy", f.opts.Strategy.String())
	gramSp.SetAttr("transport", dist.TransportName(f.opts.Transport))
	res, err := dist.ComputeGram(f.q, X, f.distOptions(gramSp))
	gramSp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("core: gram: %w", err)
	}
	f.recordComm(res)
	report := &FitReport{GramWall: res.Wall, BytesSent: res.TotalBytes()}
	report.SimWall, report.InnerWall, report.CommWall = res.MaxPhaseTimes()
	report.CacheHits = res.TotalCacheHits()
	report.CacheMisses = res.TotalStatesSimulated()
	report.RowCosts = SummarizeRowCosts(res.ObservedRowCosts)
	if total := report.CacheHits + report.CacheMisses; total > 0 && f.q.Cache != nil {
		report.CacheHitRate = float64(report.CacheHits) / float64(total)
	}

	if f.opts.CalibFrac > 0 {
		return f.fitCalibrated(fitSp, res, X, y, report)
	}

	svmSp := fitSp.Child("svm_train")
	var model *svm.Model
	if f.opts.C > 0 {
		model, err = svm.Train(res.Gram, y, f.opts.C, 0)
		if err != nil {
			svmSp.End()
			return nil, nil, fmt.Errorf("core: svm: %w", err)
		}
		report.BestC = f.opts.C
	} else {
		// Select C on a held-out validation slice of the training set
		// (picking C by training AUC would always choose the most
		// overfitted model), then retrain on the full set.
		report.BestC, err = selectC(res.Gram, y)
		if err != nil {
			svmSp.End()
			return nil, nil, fmt.Errorf("core: C selection: %w", err)
		}
		model, err = svm.Train(res.Gram, y, report.BestC, 0)
		if err != nil {
			svmSp.End()
			return nil, nil, fmt.Errorf("core: svm: %w", err)
		}
	}
	if scores, err := model.DecisionBatch(res.Gram); err == nil {
		if auc, err := svm.AUC(scores, y); err == nil {
			report.TrainAUC = auc
		}
	}
	report.SupportVecs = len(model.SupportVectors())
	svmSp.SetAttr("best_c", report.BestC)
	svmSp.SetAttr("support_vecs", report.SupportVecs)
	svmSp.End()
	trainX, trainY, states := pruneRows(model, X, y, res.States)
	return &Model{
		SVM: model, TrainX: trainX, TrainY: trainY, States: f.retainStates(states),
		opts: f.opts, fingerprint: f.q.Fingerprint(),
	}, report, nil
}

// fitCalibrated finishes a Fit whose options enable conformal calibration:
// the Gram matrix is already computed over all rows; a deterministic
// calibration partition is carved out, the SVM is trained on the proper
// subset only, and the calibration rows' decision scores (rows of the full
// Gram restricted to proper columns — exactly the inference kernel those
// rows would see) build the model's conformal predictor.
func (f *Framework) fitCalibrated(fitSp *obs.Span, res *dist.Result, X [][]float64, y []int, report *FitReport) (*Model, *FitReport, error) {
	properIdx, calibIdx := calibSplit(len(y), f.opts.CalibFrac)
	if len(calibIdx) == 0 || !bothClasses(y, properIdx) || !bothClasses(y, calibIdx) {
		return nil, nil, fmt.Errorf("core: calibration split (%d proper / %d calibration rows) must keep both classes on both sides — more data or a different CalibFrac needed", len(properIdx), len(calibIdx))
	}
	subGram := submatrix(res.Gram, properIdx, properIdx)
	calibK := submatrix(res.Gram, calibIdx, properIdx)
	subY := subLabels(y, properIdx)
	calibY := subLabels(y, calibIdx)

	svmSp := fitSp.Child("svm_train")
	svmSp.SetAttr("proper_rows", len(properIdx))
	var err error
	if f.opts.C > 0 {
		report.BestC = f.opts.C
	} else if report.BestC, err = selectC(subGram, subY); err != nil {
		svmSp.End()
		return nil, nil, fmt.Errorf("core: C selection: %w", err)
	}
	model, err := svm.Train(subGram, subY, report.BestC, 0)
	if err != nil {
		svmSp.End()
		return nil, nil, fmt.Errorf("core: svm: %w", err)
	}
	if scores, err := model.DecisionBatch(subGram); err == nil {
		if auc, err := svm.AUC(scores, subY); err == nil {
			report.TrainAUC = auc
		}
	}
	report.SupportVecs = len(model.SupportVectors())
	svmSp.SetAttr("best_c", report.BestC)
	svmSp.SetAttr("support_vecs", report.SupportVecs)
	svmSp.End()

	calSp := fitSp.Child("calibrate")
	calSp.SetAttr("rows", len(calibIdx))
	calSp.SetAttr("alpha", f.opts.Alpha)
	defer calSp.End()
	calibScores, err := model.DecisionBatch(calibK)
	if err != nil {
		return nil, nil, fmt.Errorf("core: calibration scores: %w", err)
	}
	pred, err := conformal.Calibrate(calibScores, calibY, f.opts.Alpha)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	report.Calibrated = true
	report.Alpha = f.opts.Alpha
	report.CalibRows = pred.CalibRows()
	if cov, err := pred.Coverage(calibScores, calibY); err == nil {
		report.CalibCoverage = cov
	}
	prs := pred.PredictBatch(calibScores)
	labels := make([]int, len(prs))
	conf := make([]float64, len(prs))
	for i, pr := range prs {
		labels[i] = pr.Label
		conf[i] = pr.Confidence
	}
	if rep, err := sdt.FromPredictions(labels, conf, calibY); err == nil {
		report.SDT = rep
		report.SDTValid = true
	} else if !errors.Is(err, sdt.ErrDegenerate) {
		return nil, nil, fmt.Errorf("core: sdt: %w", err)
	}

	return &Model{
		SVM: model, TrainX: pick(X, properIdx), TrainY: subY,
		States: f.retainStates(pick(res.States, properIdx)), Conformal: pred,
		opts: f.opts, fingerprint: f.q.Fingerprint(),
	}, report, nil
}

// pruneRows narrows a trained model to the training rows its decision
// function reads — α ≠ 0, in their original order — rewriting sv.Alpha and
// sv.Y and returning the matching rows, labels and states (MPS handles or
// their wire form). svm.Decision skips exactly the α = 0 terms and sums the
// rest in row order, so every decision stays ==; SupportVectors' α > 1e-9
// would drop rows that still move the sum. With no α ≠ 0 it keeps row 0 (a
// model file needs one row); that term is skipped and the decision is B.
//
// Calibrated models are not pruned. Their α = 0 share follows the C the
// selection picks on the proper subset: over eleven datasets of one shape
// (64 qubits, 205 proper rows) it ranged from none to 19 %, so pruned files
// of one shape would differ in size by a fifth. Unpruned, a calibrated
// model's size and serving cost are a function of its shape alone.
func pruneRows[S any](sv *svm.Model, x [][]float64, y []int, states []S) ([][]float64, []int, []S) {
	keep := make([]int, 0, len(sv.Alpha))
	for i, a := range sv.Alpha {
		if a != 0 {
			keep = append(keep, i)
		}
	}
	switch len(keep) {
	case len(sv.Alpha):
		return x, y, states
	case 0:
		keep = append(keep, 0)
	}
	sv.Alpha, sv.Y = pick(sv.Alpha, keep), pick(sv.Y, keep)
	return pick(x, keep), pick(y, keep), pick(states, keep)
}

// pick returns s's entries at idx, in idx order (nil for a nil s).
func pick[T any](s []T, idx []int) []T {
	if s == nil {
		return nil
	}
	out := make([]T, len(idx))
	for a, i := range idx {
		out[a] = s[i]
	}
	return out
}

// calibSplit deterministically partitions row indices 0..n−1 for split
// conformal: every stride-th row (stride = max(2, round(1/frac))) joins the
// calibration partition, the rest form the proper-training subset. The
// partition is a fixed function of (n, frac) so a refit of the same data
// reproduces the same model.
func calibSplit(n int, frac float64) (proper, calib []int) {
	stride := int(math.Round(1 / frac))
	if stride < 2 {
		stride = 2
	}
	for i := 0; i < n; i++ {
		if i%stride == stride-1 {
			calib = append(calib, i)
		} else {
			proper = append(proper, i)
		}
	}
	return proper, calib
}

// submatrix extracts the rows × cols block of k into a fresh matrix.
func submatrix(k [][]float64, rows, cols []int) [][]float64 {
	out := make([][]float64, len(rows))
	for a, i := range rows {
		out[a] = make([]float64, len(cols))
		for b, j := range cols {
			out[a][b] = k[i][j]
		}
	}
	return out
}

func subLabels(y []int, idx []int) []int {
	out := make([]int, len(idx))
	for a, i := range idx {
		out[a] = y[i]
	}
	return out
}

// retainStates decides whether the model keeps its training-state handles.
// CacheBytes is the user's memory bound, so it governs both resident sets:
// handles are dropped when caching is disabled (negative budget) or when
// their total payload would exceed the budget on its own — Predict then
// degrades gracefully to re-materialising training states through the
// (bounded) cache instead of pinning an unbounded O(N·m·χ²) set.
func (f *Framework) retainStates(states []*mps.MPS) []*mps.MPS {
	if f.cacheBudget < 0 {
		return nil
	}
	var bytes int64
	for _, st := range states {
		bytes += st.MemoryBytes()
	}
	if bytes > f.cacheBudget {
		return nil
	}
	return states
}

// selectC sweeps the paper's C grid on a deterministic 80/20 split of the
// training kernel (every 5th sample held out) and returns the value with
// the best validation AUC.
func selectC(gram [][]float64, y []int) (float64, error) {
	n := len(y)
	var fitIdx, valIdx []int
	for i := 0; i < n; i++ {
		if i%5 == 4 {
			valIdx = append(valIdx, i)
		} else {
			fitIdx = append(fitIdx, i)
		}
	}
	// Degenerate splits (single class on either side) fall back to the
	// middle of the grid.
	if !bothClasses(y, fitIdx) || !bothClasses(y, valIdx) {
		return 1.0, nil
	}
	subGram := make([][]float64, len(fitIdx))
	subY := make([]int, len(fitIdx))
	for a, i := range fitIdx {
		subY[a] = y[i]
		subGram[a] = make([]float64, len(fitIdx))
		for b, j := range fitIdx {
			subGram[a][b] = gram[i][j]
		}
	}
	valK := make([][]float64, len(valIdx))
	valY := make([]int, len(valIdx))
	for a, i := range valIdx {
		valY[a] = y[i]
		valK[a] = make([]float64, len(fitIdx))
		for b, j := range fitIdx {
			valK[a][b] = gram[i][j]
		}
	}
	_, _, bestC, err := svm.TrainBestC(subGram, subY, valK, valY, nil, 0)
	return bestC, err
}

func bothClasses(y []int, idx []int) bool {
	pos, neg := false, false
	for _, i := range idx {
		if y[i] == 1 {
			pos = true
		} else {
			neg = true
		}
	}
	return pos && neg
}

// Predict returns decision scores for new rows (positive ⇒ illicit class).
// When the model retains its training-state handles (the default after
// Fit), only the new rows are simulated; otherwise the training rows are
// re-materialised through the state cache for the call.
func (f *Framework) Predict(m *Model, X [][]float64) ([]float64, error) {
	return f.PredictCtx(context.Background(), m, X)
}

// PredictCtx is Predict under a context: when the context carries a span,
// the inference records its trace under it — a cross_kernel span with one
// child per rank and per-row spans, then a decision span for the SVM scoring.
func (f *Framework) PredictCtx(ctx context.Context, m *Model, X [][]float64) ([]float64, error) {
	if m == nil || m.SVM == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	sp := obs.SpanFromContext(ctx)
	kSp := sp.Child("cross_kernel")
	kSp.SetAttr("rows", len(X))
	states, path := m.States, "retained-states"
	var err error
	if states == nil {
		// A model without handles (see Model.States) materialises its kept
		// training rows through the bounded state cache for this call only.
		path = "resimulate"
		states, err = f.q.States(m.TrainX)
	}
	kSp.SetAttr("path", path)
	var res *dist.Result
	if err == nil {
		res, err = dist.ComputeCrossStates(f.q, X, states, f.distOptions(kSp))
	}
	kSp.End()
	if err != nil {
		return nil, fmt.Errorf("core: inference kernel: %w", err)
	}
	f.recordComm(res)
	decSp := sp.Child("decision")
	scores, err := m.SVM.DecisionBatch(res.Gram)
	decSp.End()
	return scores, err
}

// ErrNotCalibrated is returned by PredictSets on a model without a conformal
// predictor — a score-only model (trained with CalibFrac = 0, or loaded from
// a pre-calibration model file).
var ErrNotCalibrated = errors.New("core: model is not calibrated — train with Options.CalibFrac > 0 for prediction sets")

// PredictSets returns calibrated conformal predictions (prediction set,
// per-class p-values, confidence, abstain/outlier flags) for new rows. The
// model must have been trained with calibration enabled (ErrNotCalibrated
// otherwise); the underlying kernel work is identical to Predict.
func (f *Framework) PredictSets(m *Model, X [][]float64) ([]conformal.Prediction, error) {
	return f.PredictSetsCtx(context.Background(), m, X)
}

// PredictSetsCtx is PredictSets under a context carrying an optional trace
// span.
func (f *Framework) PredictSetsCtx(ctx context.Context, m *Model, X [][]float64) ([]conformal.Prediction, error) {
	if !m.Calibrated() {
		return nil, ErrNotCalibrated
	}
	scores, err := f.PredictCtx(ctx, m, X)
	if err != nil {
		return nil, err
	}
	return m.Conformal.PredictBatch(scores), nil
}

// Evaluate scores the model on labelled data.
func (f *Framework) Evaluate(m *Model, X [][]float64, y []int) (svm.Metrics, error) {
	return f.EvaluateCtx(context.Background(), m, X, y)
}

// EvaluateCtx is Evaluate under a context carrying an optional trace span.
func (f *Framework) EvaluateCtx(ctx context.Context, m *Model, X [][]float64, y []int) (svm.Metrics, error) {
	scores, err := f.PredictCtx(ctx, m, X)
	if err != nil {
		return svm.Metrics{}, err
	}
	return svm.Evaluate(scores, y)
}
