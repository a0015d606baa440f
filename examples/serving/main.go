// Serving: the full multi-model online-inference loop — train two models
// (different kernel bandwidths γ), persist them with the versioned codec,
// stand up the registry + router HTTP service on a loopback port, and fire a
// burst of concurrent single-row clients split across both models. The
// printed stats show per-model coalescing at work: many requests, few
// underlying cross-kernel computations, and no cross-model interference.
//
// Run with: go run ./examples/serving
//
// Pass -addr to skip the in-process server and target an already-running
// `qkernel serve` instead (its default model must expect the same feature
// count; named-model routing needs matching names too).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
	servehttp "repro/internal/serve/http"
	"repro/internal/serve/registry"
)

func main() {
	addr := flag.String("addr", "", "target an external qkernel serve (e.g. http://127.0.0.1:8080); empty runs everything in-process")
	features := flag.Int("features", 10, "feature count (qubits)")
	clients := flag.Int("clients", 16, "concurrent single-row clients")
	flag.Parse()

	// Synthetic Elliptic-shaped data, preprocessed the way the paper does.
	full := dataset.GenerateElliptic(dataset.EllipticConfig{
		Features: *features, NumIllicit: 40, NumLicit: 40, Seed: 7,
	})
	train, test, err := dataset.PrepareSplit(full, 60, *features, 7)
	if err != nil {
		log.Fatal(err)
	}

	base := *addr
	multiModel := base == ""
	if multiModel {
		base = startLocalServer(train)
	}

	// Fire the burst: every client POSTs one row concurrently — odd clients
	// to the "wide" model, even to the default "narrow" one — so each
	// model's batching window coalesces its own half into shared kernel
	// calls.
	rows := test.X
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			url := base + "/predict"
			if multiModel && c%2 == 1 {
				url = base + "/v1/models/wide/predict"
			}
			row := rows[c%len(rows)]
			body, _ := json.Marshal(servehttp.PredictRequest{Rows: [][]float64{row}})
			resp, err := http.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				slog.Warn("client request failed", "client", c, "err", err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				// e.g. 429 backpressure when -clients exceeds the queue depth
				fmt.Printf("client %2d: HTTP %d (shed)\n", c, resp.StatusCode)
				return
			}
			var pr servehttp.PredictResponse
			if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil || len(pr.Scores) != 1 {
				slog.Warn("client decode failed", "client", c, "err", err)
				return
			}
			fmt.Printf("client %2d: HTTP %d, model %-7s score %+.4f, label %+d\n",
				c, resp.StatusCode, pr.Model, pr.Scores[0], pr.Labels[0])
		}(c)
	}
	wg.Wait()
	fmt.Printf("\n%d clients answered in %v\n", *clients, time.Since(t0).Round(time.Millisecond))

	resp, err := http.Get(base + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var st servehttp.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	for name, ms := range st.Models {
		fmt.Printf("model %-7s: %d requests (%d rows) coalesced into %d cross-kernel calls (largest batch %d rows); cache %d hits / %d misses\n",
			name, ms.Requests, ms.Rows, ms.CrossCalls, ms.MaxBatchRows, ms.Cache.Hits, ms.Cache.Misses)
	}
}

// startLocalServer fits two models on the training split (γ=0.5 and γ=1.0 —
// two entries in one registry under a shared cache budget), round-trips them
// through the on-disk codec (exactly what `qkernel train -out` followed by
// `qkernel serve -models` does), and serves them from this process. Returns
// the base URL.
func startLocalServer(train *dataset.Dataset) string {
	dir, err := os.MkdirTemp("", "qkernel-serving-example-")
	if err != nil {
		log.Fatal(err)
	}
	specs := make([]registry.Spec, 0, 2)
	for _, m := range []struct {
		name  string
		gamma float64
	}{{"narrow", 0.5}, {"wide", 1.0}} {
		fw, err := core.New(core.Options{Features: len(train.X[0]), Gamma: m.gamma, Procs: 2})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("training %q (γ=%.1f) on %d rows...\n", m.name, m.gamma, train.Len())
		model, report, err := fw.Fit(train.X, train.Y)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trained %q: best C=%.2f, train AUC %.3f, %d support vectors\n",
			m.name, report.BestC, report.TrainAUC, report.SupportVecs)
		path := filepath.Join(dir, m.name+".bin")
		if err := model.Save(path); err != nil {
			log.Fatal(err)
		}
		specs = append(specs, registry.Spec{Name: m.name, Path: path})
	}

	reg, err := registry.Open(specs, registry.Config{
		CacheBudget: 128 << 20,
		Batch:       serve.Config{MaxBatch: 32},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, mi := range reg.List() {
		fmt.Printf("registered %q: fingerprint %s, χ=%d, %.1f MiB states, cache share %.0f MiB\n",
			mi.Name, mi.Fingerprint, mi.Chi, float64(mi.StateBytes)/(1<<20), float64(mi.CacheBudgetBytes)/(1<<20))
	}
	router := servehttp.NewRouter(reg, servehttp.Config{})
	ts := httptest.NewServer(router.Handler())
	fmt.Printf("serving on %s\n\n", ts.URL)
	return ts.URL
}
