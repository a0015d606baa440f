// Package http is the router of the multi-model serving stack: it maps the
// v1 HTTP surface onto registry lookups, enforces per-API-key token-bucket
// rate limits, and exposes the Prometheus counters with per-model label
// dimensions.
//
// Routes:
//
//	POST /v1/models/{model}/predict — score rows on a named model
//	POST /predict                   — legacy route → the default model
//	GET  /v1/models                 — list models (fingerprint, χ, cache
//	                                  bytes, load timestamp, status)
//	GET  /healthz                   — liveness + per-model readiness
//	GET  /metrics                   — Prometheus text, {model=...} labels
//	GET  /stats                     — per-model Stats snapshots as JSON
//	POST /admin/reload              — hot-swap model files (Config.EnableAdmin)
//
// The two 429 paths are deliberately distinct: a rate-limited request
// carries X-RateLimit-* headers and a Retry-After computed from the token
// refill time (a per-client fairness budget), while queue-full backpressure
// carries Retry-After: 1 and no rate-limit headers (a transient whole-server
// saturation signal). Each increments its own reason on
// qkernel_serve_rejects_total.
package http

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/registry"
)

// maxBodyBytes bounds a /predict request body; 1024 rows of 50 float64
// features is well under 1 MiB of JSON, so 8 MiB leaves generous headroom.
const maxBodyBytes = 8 << 20

// Reject reasons on qkernel_serve_rejects_total and in Stats.Rejects.
const (
	RejectRateLimit = "rate_limit"
	RejectQueueFull = "queue_full"
	RejectCanceled  = "canceled"
)

// statusClientClosedRequest is nginx's non-standard 499: the client
// disconnected before its queued request was answered. Nothing is written to
// the wire the client can still see; the code exists for the access log and
// the reject counter.
const statusClientClosedRequest = 499

// Config tunes the router.
type Config struct {
	// RateLimit is the sustained per-API-key request budget in requests per
	// second (token-bucket); 0 disables rate limiting.
	RateLimit float64
	// RateBurst is the token-bucket capacity — the burst a key may spend at
	// once. 0 derives max(1, ceil(RateLimit)).
	RateBurst int
	// EnableAdmin exposes POST /admin/reload. Off by default: reload is an
	// operator action, not part of the public prediction surface.
	EnableAdmin bool
	// Obs, when non-nil, records one trace per predict request, keyed by the
	// request's X-Request-Id (client-supplied or generated — the response
	// always carries the header), and exposes the tracer's ring under
	// GET /debug/trace/{id}. Share the same tracer with serve.Config.Obs so
	// the batcher can reconstruct each request's queue_wait / batch_compute /
	// scatter phases on the span this router starts.
	Obs *obs.Tracer
}

// Router is the HTTP front of a model registry.
type Router struct {
	reg   *registry.Registry
	cfg   Config
	rl    *limiter
	start time.Time

	mu      sync.Mutex
	rejects map[string]int64 // reason → count
}

// NewRouter builds the router over a loaded registry.
func NewRouter(reg *registry.Registry, cfg Config) *Router {
	return &Router{
		reg:     reg,
		cfg:     cfg,
		rl:      newLimiter(cfg.RateLimit, cfg.RateBurst),
		start:   time.Now(),
		rejects: map[string]int64{},
	}
}

// PredictRequest is the POST /predict body.
type PredictRequest struct {
	// Rows are the data points to score, already rescaled into the (0,2)
	// interval the feature map expects (dataset.PrepareSplit's output
	// convention), one row per prediction.
	Rows [][]float64 `json:"rows"`
}

// Prediction is one row's calibrated conformal answer inside a
// PredictResponse.
type Prediction struct {
	// PredictionSet is Γ ⊆ {−1,+1} in ascending order: a singleton is a
	// confident auto-decidable answer, both classes means abstain (route to
	// review), empty marks an outlier conforming to neither class.
	PredictionSet []int `json:"prediction_set"`
	// PValues carries the per-class conformal p-values.
	PValues map[string]float64 `json:"p_values"`
	// Confidence is 1 − the runner-up p-value; confidence > 1−α is the
	// auto-decide criterion. Credibility is the best class's p-value.
	Confidence  float64 `json:"confidence"`
	Credibility float64 `json:"credibility"`
	Abstain     bool    `json:"abstain"`
	Outlier     bool    `json:"outlier"`
}

// PredictResponse is the POST /predict answer.
type PredictResponse struct {
	// Model is the registry name that scored the rows (resolves the legacy
	// /predict route's default).
	Model string `json:"model"`
	// Scores are the SVM decision values, row for row; positive means the
	// illicit class.
	Scores []float64 `json:"scores"`
	// Labels are the thresholded scores (±1).
	Labels []int `json:"labels"`
	// Calibrated marks a model serving conformal prediction sets;
	// Predictions then carries one calibrated answer per row. Both are
	// omitted entirely on a score-only model, keeping its response
	// byte-compatible with the pre-calibration surface.
	Calibrated  bool         `json:"calibrated,omitempty"`
	Predictions []Prediction `json:"predictions,omitempty"`
}

// Stats is the GET /stats body: per-model batcher counters plus the
// router-level reject counters.
type Stats struct {
	UptimeSeconds float64                `json:"uptime_seconds"`
	Rejects       map[string]int64       `json:"rejects"`
	Models        map[string]serve.Stats `json:"models"`
}

// Handler returns the routed HTTP surface.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		rt.handlePredict(w, r, "")
	})
	mux.HandleFunc("POST /v1/models/{model}/predict", func(w http.ResponseWriter, r *http.Request) {
		rt.handlePredict(w, r, r.PathValue("model"))
	})
	mux.HandleFunc("GET /v1/models", rt.handleModels)
	mux.HandleFunc("GET /debug/trace", rt.handleTraceList)
	mux.HandleFunc("GET /debug/trace/{id}", rt.handleTrace)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /stats", rt.handleStats)
	if rt.cfg.EnableAdmin {
		mux.HandleFunc("POST /admin/reload", rt.handleReload)
	}
	return mux
}

// apiKey identifies the client for rate limiting: X-API-Key, else a bearer
// token, else the remote host — anonymous clients share a per-IP budget
// instead of one global bucket.
func apiKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	if auth := r.Header.Get("Authorization"); auth != "" {
		if tok, found := strings.CutPrefix(auth, "Bearer "); found && tok != "" {
			return tok
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (rt *Router) countReject(reason string) {
	rt.mu.Lock()
	rt.rejects[reason]++
	rt.mu.Unlock()
}

func (rt *Router) rejectCounts() map[string]int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]int64, len(rt.rejects))
	for k, v := range rt.rejects {
		out[k] = v
	}
	return out
}

// setRateHeaders writes the X-RateLimit-* trio for one limiter decision.
func setRateHeaders(w http.ResponseWriter, d decision) {
	w.Header().Set("X-RateLimit-Limit", strconv.Itoa(d.limit))
	w.Header().Set("X-RateLimit-Remaining", strconv.Itoa(d.remaining))
	w.Header().Set("X-RateLimit-Reset", strconv.Itoa(int(d.reset.Seconds()+0.999)))
}

func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request, name string) {
	// Every predict response carries X-Request-Id — propagated from the
	// client when supplied, generated otherwise — so a caller can always
	// fetch its trace from /debug/trace/{id} afterwards.
	reqID := r.Header.Get("X-Request-Id")
	if reqID == "" {
		reqID = obs.NewID()
	}
	w.Header().Set("X-Request-Id", reqID)
	if rt.rl != nil {
		d := rt.rl.allow(apiKey(r), time.Now())
		setRateHeaders(w, d)
		if !d.ok {
			// Rate-limit 429: Retry-After is the deterministic token refill
			// time, never less than a second — distinct from queue-full's
			// fixed transient backoff below.
			retry := int(d.retryAfter.Seconds() + 0.999)
			if retry < 1 {
				retry = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			rt.countReject(RejectRateLimit)
			httpError(w, http.StatusTooManyRequests, "rate limit exceeded: per-key budget spent, next token in "+strconv.Itoa(retry)+"s")
			return
		}
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req PredictRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Sprintf("malformed request: %v", err))
		return
	}
	resolved := name
	if resolved == "" {
		resolved = rt.reg.DefaultName()
	}
	ctx := r.Context()
	var tr *obs.Trace
	if rt.cfg.Obs.Enabled() {
		tr = rt.cfg.Obs.StartTrace(reqID, "request")
		root := tr.Root()
		root.SetAttr("model", resolved)
		root.SetAttr("rows", len(req.Rows))
		ctx = obs.ContextWithSpan(ctx, root)
	}
	scores, preds, err := rt.reg.PredictFullCtx(ctx, name, req.Rows)
	if tr != nil {
		if err != nil {
			tr.Root().SetAttr("error", err.Error())
		}
		rt.cfg.Obs.Finish(tr)
	}
	if err != nil {
		switch {
		case errors.Is(err, registry.ErrUnknownModel):
			httpError(w, http.StatusNotFound, err.Error())
		case errors.Is(err, serve.ErrCanceled):
			// The client is gone; its queued slot was released without
			// computing the rows.
			rt.countReject(RejectCanceled)
			httpError(w, statusClientClosedRequest, err.Error())
		case errors.Is(err, serve.ErrQueueFull):
			// Queue-full 429: transient saturation, retry shortly — no
			// X-RateLimit headers, fixed 1s backoff hint.
			w.Header().Set("Retry-After", "1")
			rt.countReject(RejectQueueFull)
			httpError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, serve.ErrClosed):
			httpError(w, http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, serve.ErrTooLarge):
			httpError(w, http.StatusRequestEntityTooLarge, err.Error())
		case errors.Is(err, serve.ErrBadRequest):
			httpError(w, http.StatusBadRequest, err.Error())
		default:
			httpError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	labels := make([]int, len(scores))
	for i, sc := range scores {
		if sc > 0 {
			labels[i] = 1
		} else {
			labels[i] = -1
		}
	}
	resp := PredictResponse{Model: resolved, Scores: scores, Labels: labels}
	if preds != nil {
		resp.Calibrated = true
		resp.Predictions = make([]Prediction, len(preds))
		for i, pr := range preds {
			set := pr.Set
			if set == nil {
				set = []int{} // outlier: an explicit empty set, not JSON null
			}
			resp.Predictions[i] = Prediction{
				PredictionSet: set,
				PValues:       map[string]float64{"pos": pr.PPos, "neg": pr.PNeg},
				Confidence:    pr.Confidence,
				Credibility:   pr.Credibility,
				Abstain:       pr.Abstain,
				Outlier:       pr.Outlier,
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// traceListResponse is the GET /debug/trace body: the IDs currently retained
// in the tracer's ring, oldest first.
type traceListResponse struct {
	Traces []string `json:"traces"`
}

func (rt *Router) handleTraceList(w http.ResponseWriter, _ *http.Request) {
	if !rt.cfg.Obs.Enabled() {
		httpError(w, http.StatusNotFound, "tracing disabled")
		return
	}
	ids := rt.cfg.Obs.IDs()
	if ids == nil {
		ids = []string{}
	}
	writeJSON(w, http.StatusOK, traceListResponse{Traces: ids})
}

func (rt *Router) handleTrace(w http.ResponseWriter, r *http.Request) {
	if !rt.cfg.Obs.Enabled() {
		httpError(w, http.StatusNotFound, "tracing disabled")
		return
	}
	id := r.PathValue("id")
	tr, ok := rt.cfg.Obs.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no trace "+id+" in ring (finished traces only; ring evicts oldest)")
		return
	}
	writeJSON(w, http.StatusOK, tr.Snapshot())
}

// modelsResponse is the GET /v1/models body.
type modelsResponse struct {
	Models []registry.ModelInfo `json:"models"`
}

func (rt *Router) handleModels(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, modelsResponse{Models: rt.reg.List()})
}

// modelHealth is one model's readiness row in the GET /healthz body.
type modelHealth struct {
	// Status is "ok", or "loading" while a reload verifies a new file (the
	// previous generation keeps serving, so loading is not an outage).
	Status   string `json:"status"`
	Features int    `json:"features"`
	// TrainRows counts the training rows the model keeps, as in the
	// /v1/models listing.
	TrainRows      int  `json:"train_rows"`
	SupportVectors int  `json:"support_vectors"`
	StatesResident bool `json:"states_resident"`
}

// healthResponse is the GET /healthz body.
type healthResponse struct {
	// Status is "ok" when every model is ready, "degraded" while any model
	// is mid-reload.
	Status        string                 `json:"status"`
	UptimeSeconds float64                `json:"uptime_seconds"`
	Models        map[string]modelHealth `json:"models"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	infos := rt.reg.List()
	resp := healthResponse{
		Status:        registry.StatusOK,
		UptimeSeconds: time.Since(rt.start).Seconds(),
		Models:        make(map[string]modelHealth, len(infos)),
	}
	for _, mi := range infos {
		if mi.Status != registry.StatusOK {
			resp.Status = "degraded"
		}
		resp.Models[mi.Name] = modelHealth{
			Status:         mi.Status,
			Features:       mi.Features,
			TrainRows:      mi.TrainRows,
			SupportVectors: mi.SupportVecs,
			StatesResident: mi.StatesResident,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, Stats{
		UptimeSeconds: time.Since(rt.start).Seconds(),
		Rejects:       rt.rejectCounts(),
		Models:        rt.reg.Stats(),
	})
}

// reloadRequest is the POST /admin/reload body; an empty body reloads every
// model whose file changed on disk (SIGHUP semantics).
type reloadRequest struct {
	// Model names a single model to reload; empty means all.
	Model string `json:"model"`
	// Force swaps even when the file stat is unchanged.
	Force bool `json:"force"`
}

// reloadResponse is the POST /admin/reload body.
type reloadResponse struct {
	Results []registry.ReloadResult `json:"results"`
}

func (rt *Router) handleReload(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<16)
	// An empty body is a valid "reload everything"; anything else malformed
	// is the caller's bug.
	var req reloadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("malformed request: %v", err))
		return
	}
	var results []registry.ReloadResult
	if req.Model != "" {
		res, err := rt.reg.Reload(req.Model, req.Force)
		if err != nil && errors.Is(err, registry.ErrUnknownModel) {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		results = []registry.ReloadResult{res}
	} else {
		results = rt.reg.ReloadAll(req.Force)
	}
	code := http.StatusOK
	for _, res := range results {
		if res.Error != "" {
			code = http.StatusInternalServerError
		}
	}
	writeJSON(w, code, reloadResponse{Results: results})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
