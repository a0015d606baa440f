package http

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/serve/registry"
)

// trainAndSave fits a small γ-model, persists it, and returns the path plus
// the in-process truth for the shared test rows.
func trainAndSave(t *testing.T, dir, name string, gamma float64) (string, []float64, [][]float64) {
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
	want, err := fw.Predict(model, test.X)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := model.Save(path); err != nil {
		t.Fatal(err)
	}
	return path, want, test.X
}

// stack is a two-model registry + router + httptest server.
type stack struct {
	reg          *registry.Registry
	ts           *httptest.Server
	wantA, wantB []float64
	testX        [][]float64
	pathA        string
}

func newStack(t *testing.T, batch serve.Config, cfg Config) *stack {
	t.Helper()
	dir := t.TempDir()
	pathA, wantA, testX := trainAndSave(t, dir, "a.bin", 0.5)
	pathB, wantB, _ := trainAndSave(t, dir, "b.bin", 1.0)
	if wantA[0] == wantB[0] {
		t.Fatal("test needs γ-distinct models with distinct scores")
	}
	reg, err := registry.Open([]registry.Spec{{Name: "alpha", Path: pathA}, {Name: "beta", Path: pathB}},
		registry.Config{Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewRouter(reg, cfg).Handler())
	t.Cleanup(func() { ts.Close(); reg.Close() })
	return &stack{reg: reg, ts: ts, wantA: wantA, wantB: wantB, testX: testX, pathA: pathA}
}

func postPredict(t *testing.T, url string, rows [][]float64) (*http.Response, PredictResponse) {
	t.Helper()
	body, err := json.Marshal(PredictRequest{Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr PredictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, pr
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestRouting: named routes hit their model, the legacy /predict hits the
// default, unknown names 404 — and every score is bit-identical to the
// owning model's in-process Predict.
func TestRouting(t *testing.T) {
	st := newStack(t, serve.Config{}, Config{})
	rows := st.testX[:2]

	resp, pr := postPredict(t, st.ts.URL+"/v1/models/alpha/predict", rows)
	if resp.StatusCode != http.StatusOK || pr.Model != "alpha" {
		t.Fatalf("alpha: status %d model %q", resp.StatusCode, pr.Model)
	}
	for i := range rows {
		if pr.Scores[i] != st.wantA[i] {
			t.Fatalf("alpha row %d: %v want %v", i, pr.Scores[i], st.wantA[i])
		}
	}

	resp, pr = postPredict(t, st.ts.URL+"/v1/models/beta/predict", rows)
	if resp.StatusCode != http.StatusOK || pr.Scores[0] != st.wantB[0] {
		t.Fatalf("beta: status %d score %v want %v", resp.StatusCode, pr.Scores[0], st.wantB[0])
	}

	// Legacy route → default model (first spec = alpha), response names it.
	resp, pr = postPredict(t, st.ts.URL+"/predict", rows)
	if resp.StatusCode != http.StatusOK || pr.Model != "alpha" || pr.Scores[0] != st.wantA[0] {
		t.Fatalf("legacy: status %d model %q score %v", resp.StatusCode, pr.Model, pr.Scores[0])
	}
	wantLabel := -1
	if st.wantA[0] > 0 {
		wantLabel = 1
	}
	if pr.Labels[0] != wantLabel {
		t.Fatalf("label %d for score %v", pr.Labels[0], st.wantA[0])
	}

	if resp, _ = postPredict(t, st.ts.URL+"/v1/models/nope/predict", rows); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: status %d", resp.StatusCode)
	}
}

// TestInterleavedMultiModelTraffic: concurrent clients split across the two
// models; per-model scores stay bit-identical throughout — no cross-model
// contamination through the shared process.
func TestInterleavedMultiModelTraffic(t *testing.T) {
	st := newStack(t, serve.Config{QueueDepth: 256}, Config{})
	const clients = 10
	var wg sync.WaitGroup
	errs := make([]string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name, want := "alpha", st.wantA
			if c%2 == 1 {
				name, want = "beta", st.wantB
			}
			for iter := 0; iter < 3; iter++ {
				resp, pr := postPredict(t, st.ts.URL+"/v1/models/"+name+"/predict", st.testX)
				if resp.StatusCode != http.StatusOK {
					errs[c] = fmt.Sprintf("%s: status %d", name, resp.StatusCode)
					return
				}
				for i := range want {
					if pr.Scores[i] != want[i] {
						errs[c] = fmt.Sprintf("%s row %d: %v want %v", name, i, pr.Scores[i], want[i])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for c, e := range errs {
		if e != "" {
			t.Fatalf("client %d: %s", c, e)
		}
	}
}

// TestRateLimit429 is the per-client-budget half of the distinct-429s
// satellite: a spent token bucket answers 429 with the X-RateLimit-* trio
// and a refill-derived Retry-After.
func TestRateLimit429(t *testing.T) {
	st := newStack(t, serve.Config{}, Config{RateLimit: 0.01, RateBurst: 2})
	rows := st.testX[:1]
	url := st.ts.URL + "/v1/models/alpha/predict"

	var limited *http.Response
	for i := 0; i < 3; i++ {
		resp, _ := postPredict(t, url, rows)
		if resp.Header.Get("X-RateLimit-Limit") != "2" {
			t.Fatalf("request %d: X-RateLimit-Limit %q, want 2", i, resp.Header.Get("X-RateLimit-Limit"))
		}
		switch i {
		case 0, 1:
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("request %d inside burst: status %d", i, resp.StatusCode)
			}
		case 2:
			limited = resp
		}
	}
	if limited.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429", limited.StatusCode)
	}
	if limited.Header.Get("X-RateLimit-Remaining") != "0" {
		t.Fatalf("remaining %q, want 0", limited.Header.Get("X-RateLimit-Remaining"))
	}
	// At 0.01 tokens/s the next token is ~100s out — a refill-derived
	// Retry-After, not queue-full's fixed 1s hint.
	if ra := limited.Header.Get("Retry-After"); ra != "100" {
		t.Fatalf("rate-limit Retry-After %q, want refill-derived 100", ra)
	}

	// A different API key has its own bucket.
	body, _ := json.Marshal(PredictRequest{Rows: rows})
	req, _ := http.NewRequest("POST", url, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-API-Key", "other-client")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh API key: status %d", resp.StatusCode)
	}

	// The reject shows up under reason="rate_limit", not "queue_full".
	text := getMetrics(t, st.ts.URL)
	if !strings.Contains(text, `qkernel_serve_rejects_total{reason="rate_limit"} 1`) {
		t.Fatalf("metrics missing rate_limit reject:\n%s", grepLines(text, "rejects_total"))
	}
	if !strings.Contains(text, `qkernel_serve_rejects_total{reason="queue_full"} 0`) {
		t.Fatalf("metrics missing explicit zero queue_full reject:\n%s", grepLines(text, "rejects_total"))
	}
}

// TestQueueFull429 is the saturation half: a full queue answers 429 with the
// fixed transient Retry-After: 1, no rate-limit headers, and its own reject
// reason. The dispatchers are held while the burst arrives, so exactly one
// request fills the depth-1 queue and every other one is shed, however fast
// a prediction is.
func TestQueueFull429(t *testing.T) {
	gate := make(chan struct{})
	st := newStack(t, serve.Config{MaxBatch: 1, QueueDepth: 1, Gate: gate}, Config{})
	var opened sync.Once
	open := func() { opened.Do(func() { close(gate) }) }
	t.Cleanup(open) // runs before the stack's, so a failed run still drains
	const burst = 24
	codes := make(chan int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postPredict(t, st.ts.URL+"/v1/models/alpha/predict", st.testX[i%len(st.testX):i%len(st.testX)+1])
			if resp.StatusCode == http.StatusTooManyRequests {
				if ra := resp.Header.Get("Retry-After"); ra != "1" {
					t.Errorf("queue-full Retry-After %q, want fixed 1", ra)
				}
				if resp.Header.Get("X-RateLimit-Limit") != "" {
					t.Error("queue-full 429 carries rate-limit headers")
				}
			}
			codes <- resp.StatusCode
		}(i)
	}
	// Only the shed requests can answer while the gate is shut; once they
	// have, open it so the queued one is served.
	var shed, served int
	for shed < burst-1 {
		if code := <-codes; code != http.StatusTooManyRequests {
			t.Fatalf("request answered %d while every dispatcher was held", code)
		}
		shed++
	}
	open()
	wg.Wait()
	if code := <-codes; code == http.StatusOK {
		served++
	}
	if shed == 0 || served == 0 {
		t.Fatalf("burst outcome shed=%d served=%d, want both nonzero", shed, served)
	}
	text := getMetrics(t, st.ts.URL)
	if !strings.Contains(text, `qkernel_serve_rejects_total{reason="queue_full"} `+
		fmt.Sprint(shed)) {
		t.Fatalf("queue_full rejects not counted:\n%s", grepLines(text, "rejects_total"))
	}
}

func TestModelsListing(t *testing.T) {
	st := newStack(t, serve.Config{}, Config{})
	var resp struct {
		Models []registry.ModelInfo `json:"models"`
	}
	getJSON(t, st.ts.URL+"/v1/models", &resp)
	if len(resp.Models) != 2 {
		t.Fatalf("%d models listed", len(resp.Models))
	}
	byName := map[string]registry.ModelInfo{}
	for _, mi := range resp.Models {
		byName[mi.Name] = mi
	}
	alpha, beta := byName["alpha"], byName["beta"]
	if !alpha.Default || beta.Default {
		t.Fatalf("default flags: %+v / %+v", alpha, beta)
	}
	if alpha.Fingerprint == "" || alpha.Fingerprint == beta.Fingerprint {
		t.Fatalf("fingerprints not distinct: %q vs %q", alpha.Fingerprint, beta.Fingerprint)
	}
	for _, mi := range resp.Models {
		if mi.Status != registry.StatusOK || mi.Chi < 1 || mi.LoadedAt.IsZero() || mi.CacheBudgetBytes <= 0 {
			t.Fatalf("listing fields: %+v", mi)
		}
	}
}

func TestHealthzPerModel(t *testing.T) {
	st := newStack(t, serve.Config{}, Config{})
	var h healthResponse
	getJSON(t, st.ts.URL+"/healthz", &h)
	if h.Status != "ok" || len(h.Models) != 2 {
		t.Fatalf("healthz: %+v", h)
	}
	for name, mh := range h.Models {
		if mh.Status != "ok" || mh.TrainRows == 0 || mh.Features != 6 {
			t.Fatalf("model %s health: %+v", name, mh)
		}
	}
}

// TestAdminReload: disabled by default (404), and when enabled it hot-swaps
// a changed model file under concurrent load with zero dropped requests and
// old-or-new (never blended) scores.
func TestAdminReload(t *testing.T) {
	disabled := newStack(t, serve.Config{}, Config{})
	resp, err := http.Post(disabled.ts.URL+"/admin/reload", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("admin disabled: status %d, want 404", resp.StatusCode)
	}

	st := newStack(t, serve.Config{QueueDepth: 256}, Config{EnableAdmin: true})
	rows := st.testX[:2]
	url := st.ts.URL + "/v1/models/alpha/predict"

	// Stage: retrain alpha's path with beta's scoring behaviour (γ=1.0) via
	// atomic replace, then reload while clients hammer.
	dir := filepath.Dir(st.pathA)
	stagedPath, wantNew, _ := trainAndSave(t, dir, "staged.bin", 1.0)
	staged, err := os.ReadFile(stagedPath)
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "swap.tmp")
	if err := os.WriteFile(tmp, staged, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, st.pathA); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	const clients = 6
	errs := make([]string, clients)
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
				resp, pr := postPredict(t, url, rows)
				if resp.StatusCode != http.StatusOK {
					errs[c] = fmt.Sprintf("status %d during reload", resp.StatusCode)
					return
				}
				oldOK := pr.Scores[0] == st.wantA[0] && pr.Scores[1] == st.wantA[1]
				newOK := pr.Scores[0] == wantNew[0] && pr.Scores[1] == wantNew[1]
				if !oldOK && !newOK {
					errs[c] = fmt.Sprintf("blended response during reload: %v", pr.Scores)
					return
				}
			}
		}(c)
	}

	resp, err = http.Post(st.ts.URL+"/admin/reload", "application/json",
		strings.NewReader(`{"model":"alpha"}`))
	if err != nil {
		t.Fatal(err)
	}
	var rr reloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(rr.Results) != 1 || !rr.Results[0].Swapped {
		t.Fatalf("reload: status %d results %+v", resp.StatusCode, rr.Results)
	}
	close(stop)
	wg.Wait()
	for c, e := range errs {
		if e != "" {
			t.Fatalf("client %d: %s", c, e)
		}
	}

	// Post-swap: alpha now scores like the staged model, beta untouched.
	if _, pr := postPredict(t, url, rows); pr.Scores[0] != wantNew[0] {
		t.Fatalf("post-reload alpha score %v, want %v", pr.Scores[0], wantNew[0])
	}
	if _, pr := postPredict(t, st.ts.URL+"/v1/models/beta/predict", rows); pr.Scores[0] != st.wantB[0] {
		t.Fatalf("beta disturbed by alpha reload: %v want %v", pr.Scores[0], st.wantB[0])
	}

	// Unknown model 404s; unchanged reload reports swapped=false.
	resp, err = http.Post(st.ts.URL+"/admin/reload", "application/json",
		strings.NewReader(`{"model":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown reload: status %d", resp.StatusCode)
	}
	resp, err = http.Post(st.ts.URL+"/admin/reload", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	rr = reloadResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(rr.Results) != 2 {
		t.Fatalf("reload-all: status %d results %+v", resp.StatusCode, rr.Results)
	}
	for _, res := range rr.Results {
		if res.Swapped {
			t.Fatalf("unchanged file swapped in reload-all: %+v", res)
		}
	}
}

func getMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

func grepLines(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestMetricsPerModelLabels: every qkernel_* family carries a {model=...}
// dimension, one sample per registered model, plus the per-model info gauge.
func TestMetricsPerModelLabels(t *testing.T) {
	st := newStack(t, serve.Config{}, Config{})
	if resp, _ := postPredict(t, st.ts.URL+"/v1/models/alpha/predict", st.testX[:2]); resp.StatusCode != http.StatusOK {
		t.Fatal("warm-up request failed")
	}
	text := getMetrics(t, st.ts.URL)
	for _, want := range []string{
		`qkernel_serve_requests_total{model="alpha"} 1`,
		`qkernel_serve_requests_total{model="beta"} 0`,
		`qkernel_serve_rows_total{model="alpha"} 2`,
		`qkernel_serve_cross_calls_total{model="alpha"} 1`,
		`qkernel_statecache_misses_total{model="alpha"}`,
		`qkernel_statecache_budget_bytes{model="beta"}`,
		`qkernel_serve_model_info{model="alpha",fingerprint=`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	// Each family header appears exactly once even with two models sampled.
	if n := strings.Count(text, "# TYPE qkernel_serve_requests_total"); n != 1 {
		t.Fatalf("family declared %d times", n)
	}

	var stats Stats
	getJSON(t, st.ts.URL+"/stats", &stats)
	// A served model never fits, so its wire counters stay zero.
	if a := stats.Models["alpha"]; a.Requests != 1 || a.Comm.Transport != "chan" || a.Comm.Messages != 0 || a.Comm.Computations != 0 {
		t.Fatalf("stats: %+v", stats.Models["alpha"])
	}
	if _, ok := stats.Models["beta"]; !ok {
		t.Fatal("stats missing beta")
	}
}

// TestBodyValidation: malformed JSON 400, width mismatch 400, oversized
// request 413 — unchanged semantics on the new router.
func TestBodyValidation(t *testing.T) {
	st := newStack(t, serve.Config{MaxRequestRows: 4}, Config{})
	url := st.ts.URL + "/predict"

	resp, err := http.Post(url, "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}
	if resp, _ := postPredict(t, url, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty rows: status %d", resp.StatusCode)
	}
	if resp, _ := postPredict(t, url, [][]float64{{0.5, 0.5}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("narrow row: status %d", resp.StatusCode)
	}
	wide := make([][]float64, 5)
	for i := range wide {
		wide[i] = st.testX[0]
	}
	if resp, _ := postPredict(t, url, wide); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized request: status %d", resp.StatusCode)
	}
}
