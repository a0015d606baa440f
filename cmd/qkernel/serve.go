package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	servehttp "repro/internal/serve/http"
	"repro/internal/serve/registry"
)

// runServe is the `qkernel serve` subcommand: load one or more models
// persisted by `qkernel train -out`, keep them resident, and answer the v1
// multi-model HTTP surface (POST /v1/models/{name}/predict plus the legacy
// /predict on the default model) with per-model micro-batched kernel-row
// computation (see internal/serve, internal/serve/registry and
// internal/serve/http). The process logs its actual listen address on
// startup ("listening on ...") so scripts can bind -addr to port 0 and
// scrape the chosen port. SIGHUP hot-reloads every model whose file changed
// on disk; -admin exposes the same as POST /admin/reload.
func runServe(args []string) int {
	fs := flag.NewFlagSet("qkernel serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	modelPath := fs.String("model", "", "single model file written by `qkernel train -out` (registers as \"default\")")
	models := fs.String("models", "", "comma-separated name=path model list; the first is the default model")
	batch := fs.Int("batch", serve.DefaultMaxBatch, "max rows coalesced into one kernel computation (per model)")
	batchWait := fs.Duration("batch-wait", serve.DefaultMaxWait, "max time the first queued row waits for a batch to fill")
	queue := fs.Int("queue", serve.DefaultQueueDepth, "max queued requests per model before 429 backpressure")
	cacheMB := fs.Int("cache-mb", -1, "total state-cache budget in MiB shared across all models (-1 keeps each model's saved setting as its share, 0 disables)")
	procs := fs.Int("procs", 0, "override the models' simulated process count (0 keeps the saved settings)")
	rateLimit := fs.Float64("rate-limit", 0, "per-API-key token-bucket rate limit in requests/second (0 disables)")
	rateBurst := fs.Int("rate-burst", 0, "rate-limit bucket capacity (0 derives from -rate-limit)")
	admin := fs.Bool("admin", false, "expose POST /admin/reload (hot model swap)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address (port 0 picks a free port; empty disables)")
	traceRing := fs.Int("trace-ring", obs.DefaultRingCapacity, "recent request/batch traces retained for GET /debug/trace/{id} (0 disables tracing)")
	var lf obs.LogFlags
	lf.Register(fs)
	_ = fs.Parse(args)
	lf.Setup()

	var specs []registry.Spec
	var err error
	switch {
	case *models != "" && *modelPath != "":
		return fail(fmt.Errorf("serve: -model and -models are mutually exclusive"))
	case *models != "":
		if specs, err = registry.ParseSpecs(*models); err != nil {
			return fail(err)
		}
	case *modelPath != "":
		specs = []registry.Spec{{Name: "default", Path: *modelPath}}
	default:
		return fail(fmt.Errorf("serve: -model or -models is required"))
	}

	// One tracer is shared by the router (request traces, /debug/trace) and
	// every model's batcher (batch traces, phase reconstruction); nil keeps
	// both disabled while the latency histograms stay live.
	var tracer *obs.Tracer
	if *traceRing > 0 {
		tracer = obs.NewTracer(*traceRing)
	}

	regCfg := registry.Config{
		Procs: *procs,
		Batch: serve.Config{MaxBatch: *batch, MaxWait: *batchWait, QueueDepth: *queue, Obs: tracer},
	}
	switch {
	case *cacheMB > 0:
		regCfg.CacheBudget = int64(*cacheMB) << 20
	case *cacheMB == 0:
		regCfg.CacheBudget = -1
	}

	reg, err := registry.Open(specs, regCfg)
	if err != nil {
		return fail(err)
	}
	defer reg.Close()
	for _, mi := range reg.List() {
		states := "re-simulating training rows on demand"
		if mi.StatesResident {
			states = fmt.Sprintf("χ=%d states resident (%.1f MiB)", mi.Chi, float64(mi.StateBytes)/(1<<20))
		}
		def := ""
		if mi.Default {
			def = " [default]"
		}
		fmt.Printf("qkernel serve: model %q%s — %s, %d features, %d training rows, %s, cache share %.0f MiB\n",
			mi.Name, def, mi.Path, mi.Features, mi.TrainRows, states, float64(mi.CacheBudgetBytes)/(1<<20))
	}

	router := servehttp.NewRouter(reg, servehttp.Config{
		RateLimit:   *rateLimit,
		RateBurst:   *rateBurst,
		EnableAdmin: *admin,
		Obs:         tracer,
	})

	// The profiler listens on its own address so /debug/pprof is never part
	// of the public prediction surface.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fail(fmt.Errorf("pprof: %w", err))
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Printf("qkernel serve: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() {
			if err := http.Serve(pln, pmux); err != nil && !errors.Is(err, http.ErrServerClosed) {
				slog.Error("pprof server exited", "err", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	limits := "rate limit off"
	if *rateLimit > 0 {
		limits = fmt.Sprintf("rate limit %.3g req/s per key", *rateLimit)
	}
	adminState := "admin off"
	if *admin {
		adminState = "admin reload on"
	}
	traceState := "tracing off"
	if tracer.Enabled() {
		traceState = fmt.Sprintf("trace ring %d", *traceRing)
	}
	fmt.Printf("qkernel serve: listening on http://%s (%d models, batch %d, batch-wait %v, queue %d, %s, %s, %s)\n",
		ln.Addr(), len(specs), *batch, *batchWait, *queue, limits, adminState, traceState)

	// SIGHUP is the operator's hot-reload signal: re-stat every model path
	// and atomically swap the changed ones with zero dropped requests.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			// The registry logs the swap/fail detail itself; this loop only
			// narrates the no-op case at debug.
			for _, res := range reg.ReloadAll(false) {
				switch {
				case res.Error != "":
					slog.Warn("SIGHUP reload failed; old model keeps serving", "model", res.Name, "err", res.Error)
				case res.Swapped:
					slog.Info("SIGHUP reloaded model", "model", res.Name, "fingerprint", res.Fingerprint)
				default:
					slog.Debug("SIGHUP: model unchanged", "model", res.Name)
				}
			}
		}
	}()

	httpSrv := &http.Server{Handler: router.Handler()}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	go func() {
		<-ctx.Done()
		shutdownCtx, done := context.WithTimeout(context.Background(), 5*time.Second)
		defer done()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fail(err)
	}
	fmt.Println("qkernel serve: shut down")
	return 0
}
