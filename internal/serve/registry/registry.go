// Package registry owns the named models of a multi-model serving process.
//
// Each registered model gets its own core.Framework (state cache, comm
// counters) and its own serve.Batcher (queue + dispatchers), so one cold or
// slow model can never stall another model's batches. The per-model state caches share one byte budget: the registry
// splits Config.CacheBudget evenly across the configured models, so N
// resident models together never hold more cached simulation state than a
// single-model deployment would.
//
// Hot swap: Reload re-stats the model path and, when the file changed (or
// force is set), loads and fingerprint-verifies the new model off the
// request path, then atomically swaps the entry's instance pointer. Requests
// already submitted to the old instance finish on the old model — its
// Batcher drains before retiring — and requests that race the swap retry on
// the fresh instance, so a reload under concurrent load drops zero requests
// and every response is scored entirely by one model, never a blend. A
// failed reload (missing file, fingerprint/codec drift, corrupt payload)
// leaves the old model serving and records the error.
package registry

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/conformal"
	"repro/internal/core"
	"repro/internal/serve"
)

// ErrUnknownModel is returned for lookups of a name that was never
// registered (HTTP 404).
var ErrUnknownModel = errors.New("registry: unknown model")

// Spec names one model file to load.
type Spec struct {
	Name string
	Path string
}

// ParseSpecs parses the CLI form "name=path,name=path,...". A bare "path"
// (no '=') registers under the name "default". The first spec is the
// default model (legacy /predict traffic).
func ParseSpecs(s string) ([]Spec, error) {
	var specs []Spec
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, path, found := strings.Cut(part, "=")
		if !found {
			name, path = "default", part
		}
		name, path = strings.TrimSpace(name), strings.TrimSpace(path)
		if name == "" || path == "" {
			return nil, fmt.Errorf("registry: malformed model spec %q (want name=path)", part)
		}
		if strings.ContainsAny(name, "/ ") {
			return nil, fmt.Errorf("registry: model name %q may not contain '/' or spaces", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("registry: duplicate model name %q", name)
		}
		seen[name] = true
		specs = append(specs, Spec{Name: name, Path: path})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("registry: no model specs in %q", s)
	}
	return specs, nil
}

// Config tunes the registry.
type Config struct {
	// CacheBudget is the total state-cache byte budget shared across all
	// registered models; each model's framework gets an even share. 0 keeps
	// every model's saved CacheBytes setting (no shared cap); negative
	// disables caching (and retained-state rehydration) for every model.
	CacheBudget int64
	// Batch is the per-model micro-batching configuration.
	Batch serve.Config
}

// Instance is one loaded model generation: the framework/model pair plus the
// Batcher answering its traffic. A hot swap creates a new Instance and
// retires the old one; an Instance is immutable after creation.
type Instance struct {
	Batcher     *serve.Batcher
	Path        string
	Fingerprint string
	LoadedAt    time.Time

	// fileSize and fileMod identify the loaded file generation; Reload
	// re-stats the path against them to skip no-op reloads.
	fileSize int64
	fileMod  time.Time
}

// entry is one registered name and its current instance.
type entry struct {
	name string
	path string

	// reloadMu serialises reloads of this entry; loading is the readiness
	// flag healthz surfaces ("loading" instead of "ok" mid-reload).
	reloadMu sync.Mutex
	loading  atomic.Bool
	cur      atomic.Pointer[Instance]

	// errMu guards lastErr, the most recent failed-reload error (the old
	// instance keeps serving through a failed reload).
	errMu   sync.Mutex
	lastErr string
}

// Registry maps model names onto hot-swappable instances. Create with Open,
// route with Predict/Get, swap with Reload, stop with Close.
type Registry struct {
	cfg     Config
	share   int64 // per-model cache budget (CacheBudget / number of models)
	order   []string
	entries map[string]*entry
}

// Open loads every spec synchronously and fails fast on the first error.
// The first spec is the default model.
func Open(specs []Spec, cfg Config) (*Registry, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("registry: no models to load")
	}
	// share == 0 means "keep each model's saved cache setting"; a positive
	// shared budget splits evenly so N models together stay within it.
	share := cfg.CacheBudget
	if share > 0 {
		share /= int64(len(specs))
		if share <= 0 {
			share = 1
		}
	}
	r := &Registry{cfg: cfg, share: share, entries: make(map[string]*entry, len(specs))}
	for _, sp := range specs {
		if _, dup := r.entries[sp.Name]; dup {
			r.Close()
			return nil, fmt.Errorf("registry: duplicate model name %q", sp.Name)
		}
		e := &entry{name: sp.Name, path: sp.Path}
		inst, err := r.load(sp.Path)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("registry: loading model %q: %w", sp.Name, err)
		}
		e.cur.Store(inst)
		r.entries[sp.Name] = e
		r.order = append(r.order, sp.Name)
	}
	return r, nil
}

// load builds one Instance from a model file, applying the registry's
// runtime tuning (its cache share). core.LoadModelTuned verifies the
// simulation-context fingerprint, so a drifted or corrupt file can never
// become an Instance.
func (r *Registry) load(path string) (*Instance, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	fw, model, err := core.LoadModelTuned(path, func(o *core.Options) {
		if r.share != 0 {
			o.CacheBytes = r.share
		}
	})
	if err != nil {
		return nil, err
	}
	b, err := serve.New(fw, model, r.cfg.Batch)
	if err != nil {
		return nil, err
	}
	return &Instance{
		Batcher:     b,
		Path:        path,
		Fingerprint: model.Fingerprint(),
		LoadedAt:    time.Now(),
		fileSize:    fi.Size(),
		fileMod:     fi.ModTime(),
	}, nil
}

// DefaultName is the name of the default model (the first spec given to
// Open) — the target of legacy /predict traffic.
func (r *Registry) DefaultName() string { return r.order[0] }

// Names lists the registered model names in registration order.
func (r *Registry) Names() []string { return append([]string(nil), r.order...) }

// Get returns the current instance serving name ("" means the default
// model). The set of names is fixed at Open; only instances change.
func (r *Registry) Get(name string) (*Instance, error) {
	if name == "" {
		name = r.DefaultName()
	}
	e, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return e.cur.Load(), nil
}

// PredictFullCtx routes rows to the named model's current Batcher and
// returns the raw scores alongside the calibrated predictions: nil
// predictions when the serving model is score-only, so callers branch on the
// slice rather than the model. A request that races a hot swap — it picked
// the old instance, the swap retired it, and the drain had already passed —
// retries on the fresh instance, so a reload under load drops nothing and
// both slices always come from one model generation. The request's context
// bounds the call: a client that disconnects while its rows are still queued
// gets its batcher slot released instead of computing a dead request
// (serve.ErrCanceled).
func (r *Registry) PredictFullCtx(ctx context.Context, name string, rows [][]float64) ([]float64, []conformal.Prediction, error) {
	for {
		inst, err := r.Get(name)
		if err != nil {
			return nil, nil, err
		}
		scores, preds, err := inst.Batcher.DoFullCtx(ctx, rows)
		if errors.Is(err, serve.ErrClosed) {
			if cur, gerr := r.Get(name); gerr == nil && cur != inst {
				continue // swapped beneath us; the new instance serves
			}
		}
		return scores, preds, err
	}
}

// ReloadResult describes one entry's outcome from Reload/ReloadAll.
type ReloadResult struct {
	Name        string `json:"name"`
	Swapped     bool   `json:"swapped"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Error       string `json:"error,omitempty"`
}

// Reload re-stats the named model's path and hot-swaps the instance when
// the file changed since it was loaded (force skips the freshness check).
// The new model is loaded and fingerprint-verified before the swap; the old
// instance serves every request it accepted (its Batcher drains on Close)
// and a failed load leaves it serving untouched.
func (r *Registry) Reload(name string, force bool) (ReloadResult, error) {
	if name == "" {
		name = r.DefaultName()
	}
	e, ok := r.entries[name]
	if !ok {
		return ReloadResult{Name: name}, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()

	old := e.cur.Load()
	if !force {
		fi, err := os.Stat(e.path)
		if err != nil {
			e.setErr(err)
			return ReloadResult{Name: name, Error: err.Error()}, fmt.Errorf("registry: reload %q: %w", name, err)
		}
		if fi.Size() == old.fileSize && fi.ModTime().Equal(old.fileMod) {
			return ReloadResult{Name: name, Swapped: false, Fingerprint: old.Fingerprint}, nil
		}
	}

	e.loading.Store(true)
	loadStart := time.Now()
	inst, err := r.load(e.path)
	e.loading.Store(false)
	if err != nil {
		e.setErr(err)
		slog.Warn("model reload failed; previous generation keeps serving",
			"model", name, "path", e.path, "err", err)
		return ReloadResult{Name: name, Error: err.Error()}, fmt.Errorf("registry: reload %q: %w", name, err)
	}
	e.cur.Store(inst)
	e.setErr(nil)
	// Retire the old generation only after the swap: new traffic already
	// routes to the fresh instance, and Close drains everything the old one
	// accepted, so the window loses nothing.
	old.Batcher.Close()
	slog.Info("model hot-swapped",
		"model", name, "path", e.path, "fingerprint", inst.Fingerprint,
		"load_seconds", time.Since(loadStart).Seconds())
	return ReloadResult{Name: name, Swapped: true, Fingerprint: inst.Fingerprint}, nil
}

// ReloadAll runs Reload on every registered model (SIGHUP semantics: pick
// up whichever model files changed on disk). Per-entry failures are
// reported in the results, not returned — one bad file must not stop the
// others from refreshing.
func (r *Registry) ReloadAll(force bool) []ReloadResult {
	results := make([]ReloadResult, 0, len(r.order))
	for _, name := range r.order {
		res, _ := r.Reload(name, force)
		results = append(results, res)
	}
	return results
}

func (e *entry) setErr(err error) {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	if err == nil {
		e.lastErr = ""
	} else {
		e.lastErr = err.Error()
	}
}

func (e *entry) lastError() string {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.lastErr
}

// Status strings surfaced per model by healthz and the model listing.
const (
	StatusOK      = "ok"
	StatusLoading = "loading"
)

// ModelInfo is one model's row in the GET /v1/models listing.
type ModelInfo struct {
	Name    string `json:"name"`
	Path    string `json:"path"`
	Default bool   `json:"default"`
	// Status is "ok", or "loading" while a reload is verifying the new
	// file (the old generation keeps serving throughout).
	Status      string `json:"status"`
	Fingerprint string `json:"fingerprint"`
	Features    int    `json:"features"`
	// TrainRows counts the training rows the model keeps, and so the
	// overlaps each served row costs: those with α ≠ 0 on a score-only
	// model, every proper-training row on a calibrated one. SupportVecs
	// counts those with α > 1e-9, so it can be smaller.
	TrainRows   int `json:"train_rows"`
	SupportVecs int `json:"support_vectors"`
	// Chi is the largest bond dimension across the retained training
	// states; 0 when the model re-simulates training rows on demand.
	Chi            int   `json:"chi"`
	StatesResident bool  `json:"states_resident"`
	StateBytes     int64 `json:"state_bytes"`
	// Calibrated reports whether the model serves conformal prediction
	// sets; Alpha is its miscoverage rate and CalibRows its calibration
	// partition size (both omitted on score-only models).
	Calibrated bool    `json:"calibrated"`
	Alpha      float64 `json:"alpha,omitempty"`
	CalibRows  int     `json:"calib_rows,omitempty"`
	// CacheBytes is the current resident state-cache payload;
	// CacheBudgetBytes this model's effective budget (its share of the
	// registry-wide budget, or its own saved setting when no shared budget
	// is configured).
	CacheBytes       int64     `json:"cache_bytes"`
	CacheBudgetBytes int64     `json:"cache_budget_bytes"`
	LoadedAt         time.Time `json:"loaded_at"`
	LastError        string    `json:"last_error,omitempty"`
}

// List reports every registered model in registration order.
func (r *Registry) List() []ModelInfo {
	infos := make([]ModelInfo, 0, len(r.order))
	for i, name := range r.order {
		e := r.entries[name]
		inst := e.cur.Load()
		fw, model := inst.Batcher.Framework(), inst.Batcher.Model()
		status := StatusOK
		if e.loading.Load() {
			status = StatusLoading
		}
		budget := r.share
		if budget <= 0 {
			budget = fw.CacheStats().Budget
		}
		mi := ModelInfo{
			Name:             name,
			Path:             e.path,
			Default:          i == 0,
			Status:           status,
			Fingerprint:      inst.Fingerprint,
			Features:         fw.Options().Features,
			TrainRows:        len(model.TrainX),
			SupportVecs:      len(model.SVM.SupportVectors()),
			Chi:              model.MaxBond(),
			StatesResident:   model.States != nil,
			StateBytes:       model.StatesBytes(),
			Calibrated:       model.Calibrated(),
			CacheBytes:       fw.CacheStats().Bytes,
			CacheBudgetBytes: budget,
			LoadedAt:         inst.LoadedAt,
			LastError:        e.lastError(),
		}
		if model.Calibrated() {
			mi.Alpha = model.Conformal.Alpha
			mi.CalibRows = model.Conformal.CalibRows()
		}
		infos = append(infos, mi)
	}
	return infos
}

// Stats snapshots every model's Batcher counters, keyed by model name.
func (r *Registry) Stats() map[string]serve.Stats {
	out := make(map[string]serve.Stats, len(r.order))
	for _, name := range r.order {
		out[name] = r.entries[name].cur.Load().Batcher.Stats()
	}
	return out
}

// Close retires every model's current instance; each Batcher drains the
// requests it accepted before Close returns.
func (r *Registry) Close() {
	var wg sync.WaitGroup
	for _, name := range r.order {
		if inst := r.entries[name].cur.Load(); inst != nil {
			wg.Add(1)
			go func(inst *Instance) {
				defer wg.Done()
				inst.Batcher.Close()
			}(inst)
		}
	}
	wg.Wait()
}
