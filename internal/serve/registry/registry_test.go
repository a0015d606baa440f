package registry

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
)

// trainModel fits a small model with the given γ (γ is sim-relevant, so two
// gammas give two distinct fingerprints AND distinct scores — exactly what
// the hot-swap metamorphic relation needs to tell generations apart).
func trainModel(t *testing.T, gamma float64) (*core.Framework, *core.Model, [][]float64) {
	t.Helper()
	full := dataset.GenerateElliptic(dataset.EllipticConfig{
		Features: 6, NumIllicit: 30, NumLicit: 30, Seed: 1,
	})
	train, test, err := dataset.PrepareSplit(full, 48, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(core.Options{Features: 6, Gamma: gamma, C: 1, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := fw.Fit(train.X, train.Y)
	if err != nil {
		t.Fatal(err)
	}
	return fw, model, test.X
}

// saveModel persists a freshly trained γ-model and returns its path plus the
// in-process truth to compare served scores against.
func saveModel(t *testing.T, dir, name string, gamma float64) (string, []float64, [][]float64) {
	t.Helper()
	fw, model, testX := trainModel(t, gamma)
	want, err := fw.Predict(model, testX)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := model.Save(path); err != nil {
		t.Fatal(err)
	}
	return path, want, testX
}

func TestParseSpecs(t *testing.T) {
	specs, err := ParseSpecs("alpha=/m/a.bin, beta=/m/b.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "alpha" || specs[1].Path != "/m/b.bin" {
		t.Fatalf("specs: %+v", specs)
	}
	if specs, err = ParseSpecs("/m/solo.bin"); err != nil || specs[0].Name != "default" {
		t.Fatalf("bare path: %+v, %v", specs, err)
	}
	for _, bad := range []string{"", "=x", "a=", "a=1,a=2", "a/b=x"} {
		if _, err := ParseSpecs(bad); err == nil {
			t.Fatalf("ParseSpecs(%q) accepted", bad)
		}
	}
}

// TestMultiModelPredict is the core acceptance relation: a registry hosting
// two models answers interleaved per-name traffic with scores bit-identical
// to each model's in-process core.Model.Predict.
func TestMultiModelPredict(t *testing.T) {
	dir := t.TempDir()
	pathA, wantA, testX := saveModel(t, dir, "a.bin", 0.5)
	pathB, wantB, _ := saveModel(t, dir, "b.bin", 1.0)
	if wantA[0] == wantB[0] {
		t.Fatal("test needs γ-distinct models with distinct scores")
	}
	r, err := Open([]Spec{{"alpha", pathA}, {"beta", pathB}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name, want := "alpha", wantA
			if c%2 == 1 {
				name, want = "beta", wantB
			}
			for iter := 0; iter < 3; iter++ {
				got, _, err := r.PredictFullCtx(context.Background(), name, testX)
				if err != nil {
					errs[c] = err
					return
				}
				for i := range want {
					if got[i] != want[i] {
						errs[c] = errors.New(name + ": served score diverged from in-process Predict")
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	// Default-name routing: "" resolves to the first spec.
	got, _, err := r.PredictFullCtx(context.Background(), "", testX[:1])
	if err != nil || got[0] != wantA[0] {
		t.Fatalf("default predict: %v, %v (want alpha's %v)", got, err, wantA[0])
	}
	if _, _, err := r.PredictFullCtx(context.Background(), "nope", testX[:1]); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model: %v", err)
	}
}

func TestSharedCacheBudgetSplit(t *testing.T) {
	dir := t.TempDir()
	pathA, _, _ := saveModel(t, dir, "a.bin", 0.5)
	pathB, _, _ := saveModel(t, dir, "b.bin", 1.0)
	const total = int64(64) << 20
	r, err := Open([]Spec{{"alpha", pathA}, {"beta", pathB}}, Config{CacheBudget: total})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, mi := range r.List() {
		if mi.CacheBudgetBytes != total/2 {
			t.Fatalf("model %s budget %d, want %d (even share of %d)", mi.Name, mi.CacheBudgetBytes, total/2, total)
		}
	}
	st := r.Stats()
	if len(st) != 2 || st["alpha"].Cache.Budget != total/2 {
		t.Fatalf("per-model stats budget: %+v", st["alpha"].Cache)
	}
}

func TestListFields(t *testing.T) {
	dir := t.TempDir()
	pathA, _, _ := saveModel(t, dir, "a.bin", 0.5)
	r, err := Open([]Spec{{"alpha", pathA}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	infos := r.List()
	if len(infos) != 1 {
		t.Fatalf("%d infos", len(infos))
	}
	mi := infos[0]
	if !mi.Default || mi.Status != StatusOK || mi.Fingerprint == "" || mi.LoadedAt.IsZero() {
		t.Fatalf("info: %+v", mi)
	}
	if mi.TrainRows == 0 || mi.Features != 6 {
		t.Fatalf("info shape: %+v", mi)
	}
	if !mi.StatesResident || mi.Chi < 1 || mi.StateBytes <= 0 {
		t.Fatalf("retained-state fields: %+v", mi)
	}
}

// TestHotSwapMetamorphic is the reload relation the tentpole promises: under
// concurrent clients, every response served during a hot-swap window is
// bit-identical to EITHER the old model's scores OR the new model's — never
// a blend, never an error, never a drop. Run with -race in CI.
func TestHotSwapMetamorphic(t *testing.T) {
	dir := t.TempDir()
	path, wantOld, testX := saveModel(t, dir, "live.bin", 0.5)
	_, wantNew, _ := saveModel(t, dir, "staged.bin", 1.0)
	if wantOld[0] == wantNew[0] {
		t.Fatal("test needs γ-distinct models with distinct scores")
	}

	r, err := Open([]Spec{{"live", path}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	oldFP := r.List()[0].Fingerprint

	rows := testX[:3]
	matches := func(got, want []float64) bool {
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}

	const clients = 6
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sawNew atomic.Int64
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, _, err := r.PredictFullCtx(context.Background(), "live", rows)
				if err != nil {
					errs[c] = err
					return
				}
				switch {
				case matches(got, wantOld[:3]):
				case matches(got, wantNew[:3]):
					sawNew.Add(1)
				default:
					errs[c] = errors.New("blended or corrupted response during hot swap")
					return
				}
			}
		}(c)
	}

	// Swap the live file for the staged model (atomic rename, same path)
	// and hot-reload while the clients hammer.
	staged, err := os.ReadFile(filepath.Join(dir, "staged.bin"))
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "incoming.bin")
	if err := os.WriteFile(tmp, staged, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	res, err := r.Reload("live", true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Swapped || res.Fingerprint == oldFP {
		t.Fatalf("reload did not swap generations: %+v (old fp %s)", res, oldFP)
	}

	// Post-swap responses must come from the new model only.
	got, _, err := r.PredictFullCtx(context.Background(), "live", rows)
	if err != nil || !matches(got, wantNew[:3]) {
		t.Fatalf("post-swap predict: %v, %v (want new model's %v)", got, err, wantNew[:3])
	}
	close(stop)
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d during hot swap: %v", c, err)
		}
	}
	if mi := r.List()[0]; mi.Fingerprint != res.Fingerprint || mi.Status != StatusOK {
		t.Fatalf("post-swap listing: %+v", mi)
	}
}

// TestReloadUnchangedSkips: Reload without force is a no-op while the file
// stat is unchanged — SIGHUP on a quiet deployment must not churn models.
func TestReloadUnchangedSkips(t *testing.T) {
	dir := t.TempDir()
	path, _, _ := saveModel(t, dir, "a.bin", 0.5)
	r, err := Open([]Spec{{"alpha", path}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	before := r.Get
	inst0, _ := before("alpha")
	res, err := r.Reload("alpha", false)
	if err != nil || res.Swapped {
		t.Fatalf("unchanged reload: %+v, %v", res, err)
	}
	if inst1, _ := r.Get("alpha"); inst1 != inst0 {
		t.Fatal("unchanged reload replaced the instance")
	}
	if res, err = r.Reload("alpha", true); err != nil || !res.Swapped {
		t.Fatalf("forced reload: %+v, %v", res, err)
	}
}

// TestReloadFailureKeepsOld: a corrupt replacement file must leave the old
// generation serving and surface the error in the listing.
func TestReloadFailureKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path, want, testX := saveModel(t, dir, "a.bin", 0.5)
	r, err := Open([]Spec{{"alpha", path}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if err := os.WriteFile(path, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Reload("alpha", true); err == nil {
		t.Fatal("corrupt reload succeeded")
	}
	got, _, err := r.PredictFullCtx(context.Background(), "alpha", testX[:2])
	if err != nil || got[0] != want[0] {
		t.Fatalf("old generation stopped serving after failed reload: %v, %v", got, err)
	}
	mi := r.List()[0]
	if mi.LastError == "" || mi.Status != StatusOK {
		t.Fatalf("failed reload not surfaced: %+v", mi)
	}
	// ReloadAll reports the failure per entry instead of failing the sweep.
	results := r.ReloadAll(true)
	if len(results) != 1 || results[0].Error == "" {
		t.Fatalf("ReloadAll results: %+v", results)
	}
}

// TestLoadingStatus: a model mid-reload reports "loading", not "ok" — the
// healthz readiness satellite.
func TestLoadingStatus(t *testing.T) {
	dir := t.TempDir()
	path, _, _ := saveModel(t, dir, "a.bin", 0.5)
	r, err := Open([]Spec{{"alpha", path}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	e := r.entries["alpha"]
	e.loading.Store(true)
	if mi := r.List()[0]; mi.Status != StatusLoading {
		t.Fatalf("mid-reload status %q, want %q", mi.Status, StatusLoading)
	}
	e.loading.Store(false)
	if mi := r.List()[0]; mi.Status != StatusOK {
		t.Fatalf("post-reload status %q", mi.Status)
	}
}

func TestOpenRejectsBadSpecs(t *testing.T) {
	dir := t.TempDir()
	path, _, _ := saveModel(t, dir, "a.bin", 0.5)
	if _, err := Open(nil, Config{}); err == nil {
		t.Fatal("empty specs accepted")
	}
	if _, err := Open([]Spec{{"a", path}, {"a", path}}, Config{}); err == nil {
		t.Fatal("duplicate names accepted")
	}
	if _, err := Open([]Spec{{"a", filepath.Join(dir, "missing.bin")}}, Config{}); err == nil ||
		!strings.Contains(err.Error(), "missing.bin") {
		t.Fatalf("missing file: %v", err)
	}
}

// TestBatchConfigThreaded: the registry hands its per-model batch config to
// every batcher — queue-full backpressure still works per model. Each
// request carries rows no other request shares, so every batch simulates
// and the burst meets dispatchers that are all busy: at most one request
// per dispatcher plus the one queued can be in the system at once.
func TestBatchConfigThreaded(t *testing.T) {
	dir := t.TempDir()
	path, _, testX := saveModel(t, dir, "a.bin", 0.5)
	r, err := Open([]Spec{{"alpha", path}}, Config{
		Batch: serve.Config{MaxBatch: 1, QueueDepth: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	burst := 2*runtime.GOMAXPROCS(0) + 8
	var wg sync.WaitGroup
	var shed atomic.Int64
	for i := 0; i < burst; i++ {
		rows := make([][]float64, 64)
		for k := range rows {
			rows[k] = append([]float64(nil), testX[k%len(testX)]...)
			rows[k][0] += float64(i*len(rows)+k) * 1e-4
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := r.PredictFullCtx(context.Background(), "alpha", rows); errors.Is(err, serve.ErrQueueFull) {
				shed.Add(1)
			}
		}()
	}
	wg.Wait()
	if shed.Load() == 0 {
		t.Fatal("depth-1 queue shed nothing under a burst")
	}
}
