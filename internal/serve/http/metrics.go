package http

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/serve"
)

// handleMetrics renders the counters in the Prometheus text exposition
// format with a {model="..."} label dimension on every per-model family —
// the serve-side request/batch/latency counters and each model's
// state-cache hit and latency counters — plus the router-level
// qkernel_serve_rejects_total{reason=...} split between rate-limit and
// queue-full 429s.
func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	stats := rt.reg.Stats()
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)

	var sb strings.Builder
	// family emits one HELP/TYPE header and then one labelled sample per
	// model — the exposition format wants each family declared exactly once.
	family := func(name, typ, help string, value func(serve.Stats) float64) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, model := range names {
			fmt.Fprintf(&sb, "%s{model=%q} %g\n", name, model, value(stats[model]))
		}
	}
	family("qkernel_serve_requests_total", "counter", "accepted prediction requests",
		func(st serve.Stats) float64 { return float64(st.Requests) })
	family("qkernel_serve_rows_total", "counter", "rows carried by accepted requests",
		func(st serve.Stats) float64 { return float64(st.Rows) })
	family("qkernel_serve_batches_total", "counter", "dispatched micro-batches",
		func(st serve.Stats) float64 { return float64(st.Batches) })
	family("qkernel_serve_cross_calls_total", "counter", "underlying cross-kernel computations",
		func(st serve.Stats) float64 { return float64(st.CrossCalls) })
	family("qkernel_serve_rejected_total", "counter", "requests rejected with queue-full backpressure",
		func(st serve.Stats) float64 { return float64(st.Rejected) })
	family("qkernel_serve_errors_total", "counter", "batches whose kernel computation failed",
		func(st serve.Stats) float64 { return float64(st.Errors) })
	family("qkernel_serve_canceled_total", "counter", "queued requests whose client disconnected before dispatch",
		func(st serve.Stats) float64 { return float64(st.Canceled) })
	family("qkernel_serve_abstentions_total", "counter", "rows answered with the ambiguous two-class prediction set (calibrated models only)",
		func(st serve.Stats) float64 { return float64(st.Abstentions) })
	family("qkernel_serve_model_calibrated", "gauge", "whether the resident model serves conformal prediction sets",
		func(st serve.Stats) float64 {
			if st.Calibrated {
				return 1
			}
			return 0
		})
	family("qkernel_serve_predict_seconds_total", "counter", "wall-clock inside batched kernel calls",
		func(st serve.Stats) float64 { return st.PredictWall.Seconds() })
	family("qkernel_serve_wait_seconds_total", "counter", "request time spent queued before batch dispatch",
		func(st serve.Stats) float64 { return st.WaitWall.Seconds() })
	family("qkernel_serve_queue_jobs", "gauge", "requests currently queued",
		func(st serve.Stats) float64 { return float64(st.QueuedJobs) })
	family("qkernel_serve_batch_rows_max", "gauge", "largest batch dispatched",
		func(st serve.Stats) float64 { return float64(st.MaxBatchRows) })
	family("qkernel_statecache_hits_total", "counter", "state-cache hits (resident or in-flight join)",
		func(st serve.Stats) float64 { return float64(st.Cache.Hits) })
	family("qkernel_statecache_misses_total", "counter", "state-cache misses (simulations executed)",
		func(st serve.Stats) float64 { return float64(st.Cache.Misses) })
	family("qkernel_statecache_evictions_total", "counter", "state-cache evictions",
		func(st serve.Stats) float64 { return float64(st.Cache.Evictions) })
	family("qkernel_statecache_compute_seconds_total", "counter", "wall-clock inside cached simulations",
		func(st serve.Stats) float64 { return st.Cache.ComputeWall.Seconds() })
	family("qkernel_statecache_wait_seconds_total", "counter", "wall-clock blocked on in-flight simulations",
		func(st serve.Stats) float64 { return st.Cache.WaitWall.Seconds() })
	family("qkernel_statecache_bytes", "gauge", "resident state-cache payload",
		func(st serve.Stats) float64 { return float64(st.Cache.Bytes) })
	family("qkernel_statecache_budget_bytes", "gauge", "configured state-cache budget (this model's share)",
		func(st serve.Stats) float64 { return float64(st.Cache.Budget) })
	family("qkernel_statecache_entries", "gauge", "resident state-cache entries",
		func(st serve.Stats) float64 { return float64(st.Cache.Entries) })

	// Latency histograms: one family declaration, one {model=...} labelset
	// per model, cumulative le buckets ending at +Inf plus _sum/_count —
	// where p50/p99 dashboards come from.
	histFamily := func(name, help string, snap func(serve.Stats) obs.HistogramSnapshot) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		for _, model := range names {
			snap(stats[model]).WriteProm(&sb, name, fmt.Sprintf("model=%q", model))
		}
	}
	histFamily("qkernel_serve_request_seconds", "end-to-end request latency, enqueue to scatter",
		func(st serve.Stats) obs.HistogramSnapshot { return st.RequestSeconds })
	histFamily("qkernel_serve_queue_wait_seconds", "request queue wait, enqueue to batch dispatch",
		func(st serve.Stats) obs.HistogramSnapshot { return st.QueueWaitSeconds })
	histFamily("qkernel_serve_confidence", "per-row conformal confidence of calibrated predictions",
		func(st serve.Stats) obs.HistogramSnapshot { return st.ConfidenceBuckets })

	// Router-level rejects, split by reason: rate-limit and queue-full are
	// distinct failure modes (per-client budget vs whole-server saturation),
	// and canceled marks clients that disconnected while queued. Every
	// reason is always exported so dashboards see an explicit zero rather
	// than a missing series.
	rejects := rt.rejectCounts()
	sb.WriteString("# HELP qkernel_serve_rejects_total requests rejected by the router, by reason\n# TYPE qkernel_serve_rejects_total counter\n")
	for _, reason := range []string{RejectQueueFull, RejectRateLimit, RejectCanceled} {
		fmt.Fprintf(&sb, "qkernel_serve_rejects_total{reason=%q} %d\n", reason, rejects[reason])
	}

	sb.WriteString("# HELP qkernel_serve_model_info per-model identity (value fixed at 1)\n# TYPE qkernel_serve_model_info gauge\n")
	for _, mi := range rt.reg.List() {
		fmt.Fprintf(&sb, "qkernel_serve_model_info{model=%q,fingerprint=%q,status=%q} 1\n", mi.Name, mi.Fingerprint, mi.Status)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(sb.String()))
}
