package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/mps"
	"repro/internal/obs"
	"repro/internal/statecache"
	"repro/internal/svm"
)

func preparedData(tb testing.TB, features, size int) (train, test *dataset.Dataset) {
	tb.Helper()
	full := dataset.GenerateElliptic(dataset.EllipticConfig{
		Features: features, NumIllicit: size, NumLicit: size, Seed: 1,
	})
	tr, te, err := dataset.PrepareSplit(full, size, features, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return tr, te
}

func TestNewValidatesOptions(t *testing.T) {
	if _, err := New(Options{Features: 0}); err == nil {
		t.Fatal("zero features must error")
	}
	if _, err := New(Options{Features: 4, Distance: 9}); err == nil {
		t.Fatal("distance ≥ features must error")
	}
	fw, err := New(Options{Features: 8})
	if err != nil {
		t.Fatal(err)
	}
	if fw.opts.Layers != 2 || fw.opts.Gamma != 0.1 || fw.opts.Procs != 1 {
		t.Fatalf("defaults wrong: %+v", fw.opts)
	}
}

func TestFitPredictRoundTrip(t *testing.T) {
	train, test := preparedData(t, 24, 120)
	fw, err := New(Options{Features: 24, Gamma: 0.1, Procs: 2, Strategy: dist.RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	model, report, err := fw.Fit(train.X, train.Y)
	if err != nil {
		t.Fatal(err)
	}
	if report.GramWall <= 0 || report.BestC <= 0 || report.SupportVecs == 0 {
		t.Fatalf("report incomplete: %+v", report)
	}
	if report.TrainAUC < 0.5 {
		t.Fatalf("train AUC %v below chance", report.TrainAUC)
	}
	scores, err := fw.Predict(model, test.X)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != test.Len() {
		t.Fatalf("%d scores for %d rows", len(scores), test.Len())
	}
	met, err := fw.Evaluate(model, test.X, test.Y)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(met.AUC) || met.AUC < 0.6 {
		t.Fatalf("test metrics implausible: %+v", met)
	}
}

func TestFitFixedC(t *testing.T) {
	train, _ := preparedData(t, 10, 40)
	fw, err := New(Options{Features: 10, C: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	_, report, err := fw.Fit(train.X, train.Y)
	if err != nil {
		t.Fatal(err)
	}
	if report.BestC != 0.5 {
		t.Fatalf("fixed C not honoured: %v", report.BestC)
	}
}

func TestFitErrors(t *testing.T) {
	fw, err := New(Options{Features: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fw.Fit([][]float64{{1, 1, 1, 1}}, []int{1, -1}); err == nil {
		t.Fatal("row/label mismatch must error")
	}
	if _, err := fw.Predict(nil, nil); err == nil {
		t.Fatal("nil model must error")
	}
}

func TestNoMessagingStrategyWorks(t *testing.T) {
	train, _ := preparedData(t, 8, 32)
	fwRR, err := New(Options{Features: 8, Procs: 3, Strategy: dist.RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	fwNM, err := New(Options{Features: 8, Procs: 3, Strategy: dist.NoMessaging})
	if err != nil {
		t.Fatal(err)
	}
	m1, r1, err := fwRR.Fit(train.X, train.Y)
	if err != nil {
		t.Fatal(err)
	}
	m2, r2, err := fwNM.Fit(train.X, train.Y)
	if err != nil {
		t.Fatal(err)
	}
	// Same data, same kernel ⇒ equivalent models. The Gram entries can
	// differ in the last ulp between strategies (⟨a|b⟩ vs ⟨b|a⟩ ordering),
	// which may flip SMO pair choices, so allow a small metric wobble.
	if math.Abs(r1.TrainAUC-r2.TrainAUC) > 0.05 {
		t.Fatalf("strategies disagree: %v vs %v", r1.TrainAUC, r2.TrainAUC)
	}
	if r2.BytesSent != 0 {
		t.Fatal("no-messaging must not communicate")
	}
	_ = m1
	_ = m2
}

// TestPredictZeroResimulation is the tentpole acceptance check: after Fit,
// the model retains its training-state handles, so Predict simulates only
// the new rows — asserted through the cache counters (every simulation is a
// recorded miss) — and a refit over the same rows is served entirely from
// the cache.
func TestPredictZeroResimulation(t *testing.T) {
	train, test := preparedData(t, 8, 24)
	fw, err := New(Options{Features: 8, C: 1, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	model, report, err := fw.Fit(train.X, train.Y)
	if err != nil {
		t.Fatal(err)
	}
	if report.CacheMisses != train.Len() || report.CacheHits != 0 {
		t.Fatalf("cold fit: hits/misses %d/%d, want 0/%d", report.CacheHits, report.CacheMisses, train.Len())
	}
	if len(model.States) != len(model.TrainX) {
		t.Fatalf("model retains %d states for %d training rows", len(model.States), len(model.TrainX))
	}

	before := fw.CacheStats()
	if _, err := fw.Predict(model, test.X); err != nil {
		t.Fatal(err)
	}
	after := fw.CacheStats()
	if sims := after.Misses - before.Misses; sims != int64(test.Len()) {
		t.Fatalf("predict simulated %d states, want only the %d test rows", sims, test.Len())
	}
	if after.Hits != before.Hits {
		t.Fatalf("predict touched the cache for training states (%d new hits); handles should bypass it", after.Hits-before.Hits)
	}

	// A refit over the same rows is fully warm.
	_, report2, err := fw.Fit(train.X, train.Y)
	if err != nil {
		t.Fatal(err)
	}
	if report2.CacheHits != train.Len() || report2.CacheMisses != 0 || report2.CacheHitRate != 1 {
		t.Fatalf("warm refit: %+v", report2)
	}

	// Dropping the handles falls back to the cache — still no simulations.
	model.States = nil
	mid := fw.CacheStats()
	if _, err := fw.Predict(model, test.X); err != nil {
		t.Fatal(err)
	}
	end := fw.CacheStats()
	if end.Misses != mid.Misses {
		t.Fatalf("handle-less predict re-simulated %d states despite a warm cache", end.Misses-mid.Misses)
	}
}

// TestPredictWithoutStatesTakesRetainedPath: a model that dropped its
// training-state handles — the CacheBytes < 0 opt-out, or a budget smaller
// than the state set — scores exactly as the same model with handles, on
// every process count and wire, and sends no shard message: it takes the
// retained-state path on states it materialises for the call. With the
// training states still cached, it simulates only the test rows.
func TestPredictWithoutStatesTakesRetainedPath(t *testing.T) {
	fw, model, testX := fitSmallModel(t, Options{Features: 6, C: 1, Procs: 2})
	var buf bytes.Buffer
	if err := model.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var stateBytes int64
	for _, st := range model.States {
		stateBytes += st.MemoryBytes()
	}
	load := func(t *testing.T, tr dist.Transport, procs int, cacheBytes int64) (*Framework, *Model) {
		t.Helper()
		f, m, err := DecodeModel(bytes.NewReader(buf.Bytes()), func(o *Options) {
			o.Transport, o.Procs, o.CacheBytes = tr, procs, cacheBytes
		})
		if err != nil {
			t.Fatal(err)
		}
		return f, m
	}
	for _, tr := range []dist.Transport{dist.ChanTransport{}, dist.TCPTransport{}} {
		for _, procs := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/procs=%d", dist.TransportName(tr), procs), func(t *testing.T) {
				fwKeep, keep := load(t, tr, procs, 0)
				if keep.States == nil {
					t.Fatal("default load dropped the states")
				}
				want, err := fwKeep.Predict(keep, testX)
				if err != nil {
					t.Fatal(err)
				}
				for _, budget := range []int64{-1, stateBytes / 2} {
					fwDrop, drop := load(t, tr, procs, budget)
					if drop.States != nil {
						t.Fatalf("budget %d: load kept %d states", budget, len(drop.States))
					}
					before := fwDrop.CommStats()
					got, err := fwDrop.Predict(drop, testX)
					if err != nil {
						t.Fatal(err)
					}
					after := fwDrop.CommStats()
					if after.Messages != before.Messages || after.Bytes != before.Bytes {
						t.Fatalf("budget %d: predict without states sent %d messages, %d bytes",
							budget, after.Messages-before.Messages, after.Bytes-before.Bytes)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("budget %d: score %d is %v without states, %v with", budget, i, got[i], want[i])
						}
					}
				}
			})
		}
	}

	// The Fit framework's cache still holds every training state.
	dropped := *model
	dropped.States = nil
	before := fw.CacheStats()
	if _, err := fw.Predict(&dropped, testX); err != nil {
		t.Fatal(err)
	}
	after := fw.CacheStats()
	if sims := after.Misses - before.Misses; sims != int64(len(testX)) {
		t.Fatalf("warm predict without states simulated %d states, want only the %d test rows", sims, len(testX))
	}
	if hits := after.Hits - before.Hits; hits != int64(len(model.TrainX)) {
		t.Fatalf("warm predict without states hit the cache %d times, want %d", hits, len(model.TrainX))
	}
}

// TestRetentionHonoursBudget: a tiny positive budget keeps the cache
// bounded AND stops the model from pinning a training-state set larger than
// that budget — Predict degrades to re-simulation instead of OOM.
func TestRetentionHonoursBudget(t *testing.T) {
	train, test := preparedData(t, 8, 16)
	fw, err := New(Options{Features: 8, C: 1, CacheBytes: 1024}) // far below the states' payload
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := fw.Fit(train.X, train.Y)
	if err != nil {
		t.Fatal(err)
	}
	if model.States != nil {
		t.Fatalf("model pinned %d states past a 1 KiB budget", len(model.States))
	}
	if s := fw.CacheStats(); s.Bytes > s.Budget {
		t.Fatalf("cache over budget: %+v", s)
	}
	if _, err := fw.Predict(model, test.X); err != nil {
		t.Fatal(err)
	}
}

// TestPredictWidthMismatchErrors: retained handles from one framework fed
// through a narrower one must error, not panic.
func TestPredictWidthMismatchErrors(t *testing.T) {
	train, _ := preparedData(t, 8, 16)
	wide, err := New(Options{Features: 8, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := wide.Fit(train.X, train.Y)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := New(Options{Features: 6, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	narrowRows := make([][]float64, 2)
	for i := range narrowRows {
		narrowRows[i] = train.X[i][:6]
	}
	if _, err := narrow.Predict(model, narrowRows); err == nil {
		t.Fatal("8-qubit retained states accepted by a 6-qubit framework")
	}
}

// TestPredictRejectsBadHandles: Model.States is a public field, so a
// hand-built model whose handles are nil or of another width must fail
// Predict with an error, not panic in the overlap.
func TestPredictRejectsBadHandles(t *testing.T) {
	fw, model, testX := fitSmallModel(t, Options{Features: 6, C: 1, Procs: 2})
	for _, bad := range []*mps.MPS{nil, mps.NewZeroState(5, mps.Config{})} {
		states := append([]*mps.MPS(nil), model.States...)
		states[len(states)-1] = bad
		hand := &Model{SVM: model.SVM, TrainX: model.TrainX, TrainY: model.TrainY, States: states}
		if _, err := fw.Predict(hand, testX); err == nil {
			t.Fatalf("Predict accepted training handle %v", bad)
		}
	}
}

// TestPredictTraceRowSpans: a traced Predict records one row span per test
// row directly under cross_kernel, and no per-rank span — inference runs on
// one process whatever Procs the framework trains with.
func TestPredictTraceRowSpans(t *testing.T) {
	fw, model, testX := fitSmallModel(t, Options{Features: 6, C: 1, Procs: 2})
	tr := obs.NewTrace(obs.NewID(), "predict")
	if _, err := fw.PredictCtx(obs.ContextWithSpan(context.Background(), tr.Root()), model, testX); err != nil {
		t.Fatal(err)
	}
	tr.Root().End()
	var kernelID int64
	rows := 0
	for _, sp := range tr.Snapshot().Spans {
		switch {
		case sp.Name == "cross_kernel":
			kernelID = sp.ID
		case sp.Name == "row" && sp.Parent == kernelID && kernelID != 0:
			rows++
		case strings.HasPrefix(sp.Name, "rank"):
			t.Fatalf("inference recorded a %q span", sp.Name)
		}
	}
	if rows != len(testX) {
		t.Fatalf("%d row spans under cross_kernel, want one per test row (%d)", rows, len(testX))
	}
}

// TestCacheDisabled: a negative budget switches caching off end to end.
func TestCacheDisabled(t *testing.T) {
	train, _ := preparedData(t, 8, 16)
	fw, err := New(Options{Features: 8, C: 1, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	model, report, err := fw.Fit(train.X, train.Y)
	if err != nil {
		t.Fatal(err)
	}
	if report.CacheHits != 0 || report.CacheHitRate != 0 {
		t.Fatalf("disabled cache reported hits: %+v", report)
	}
	if s := fw.CacheStats(); s != (statecache.Stats{}) {
		t.Fatalf("disabled cache has stats %+v", s)
	}
	// The memory opt-out also drops the retained handles: nothing pins the
	// training states, and Predict falls back to re-simulation.
	if model.States != nil {
		t.Fatalf("CacheBytes<0 still retained %d states", len(model.States))
	}
	if _, err := fw.Predict(model, train.X[:4]); err != nil {
		t.Fatal(err)
	}
}

func TestSelectCDegenerateFallback(t *testing.T) {
	// Validation slice (every 5th sample) single-class → fallback C=1.
	gram := [][]float64{
		{1, 0, 0, 0, 0},
		{0, 1, 0, 0, 0},
		{0, 0, 1, 0, 0},
		{0, 0, 0, 1, 0},
		{0, 0, 0, 0, 1},
	}
	// Index 4 is the only validation sample → one class there.
	y := []int{1, -1, 1, -1, 1}
	c, err := selectC(gram, y)
	if err != nil {
		t.Fatal(err)
	}
	if c != 1.0 {
		t.Fatalf("degenerate split should fall back to C=1, got %v", c)
	}
}

func TestEvaluateMatchesManualPath(t *testing.T) {
	train, test := preparedData(t, 10, 40)
	fw, err := New(Options{Features: 10, C: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := fw.Fit(train.X, train.Y)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := fw.Predict(model, test.X)
	if err != nil {
		t.Fatal(err)
	}
	met1, err := fw.Evaluate(model, test.X, test.Y)
	if err != nil {
		t.Fatal(err)
	}
	met2, err := svm.Evaluate(scores, test.Y)
	if err != nil {
		t.Fatal(err)
	}
	if met1.AUC != met2.AUC || met1.Accuracy != met2.Accuracy {
		t.Fatalf("Evaluate disagrees with manual path: %+v vs %+v", met1, met2)
	}
}
