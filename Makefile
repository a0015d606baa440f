GO      ?= go
DATE    := $(shell date +%Y-%m-%d)
BENCH_OUT := BENCH_$(DATE).json

# The 1-iteration smoke subset: the distributed-Gram benchmarks this repo's
# perf trajectory tracks, plus one simulator bench, one solver bench, the
# cache/overlap-engine benches added with the state cache, the micro-batched
# serving path (ns/op per coalesced row), the transport ablation
# (chan vs. sim vs. tcp-loopback wires under the same round-robin Gram), the
# fused gate-engine bench (serial + parallel backends), and the blocked
# tridiagonal eigensolver behind SVDTruncLazy.
SMOKE_BENCHES := BenchmarkFig8RuntimeBreakdown|BenchmarkAblationDistStrategies|BenchmarkFig5SimulationSerial|BenchmarkSVMTrain|BenchmarkFitPredictRoundTrip|BenchmarkGramFromStates|BenchmarkServeBatch|BenchmarkGramTransport|BenchmarkApplyCircuit|BenchmarkBlockedEig

# The committed perf baseline: the newest BENCH_<date>.json tracked by git.
# bench-check reads the blob from HEAD (not the working tree), so a fresh
# `make bench-smoke` that overwrites the same-day baseline file on disk
# cannot make the gate compare a run against itself.
BASELINE := $(shell git ls-files 'BENCH_*.json' | sort | tail -1)

.PHONY: all build vet fmt-check test race loc bench-smoke bench-check serve-smoke load-smoke obs-smoke calib-smoke ci clean

all: build

build:
	$(GO) build ./...

# bench/ is its own module, so ./... does not reach it; it is vetted
# explicitly, as `make test` tests it.
vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

# bench/ is its own module, so ./... does not reach it: its tests (quantile and
# verdict units, plus a smoke run of all four workloads under their
# HTTP-vs-in-process and ValidateGram gates) are run explicitly.
test:
	$(GO) test ./...
	$(GO) -C bench test ./...

race:
	$(GO) test -race -short ./...

# loc prints the non-test Go lines of each package directory and their total,
# outside bench/ (its own module) and hidden directories: the size figure the
# ROADMAP tracks. Informational only; nothing gates on it.
LOC_FILES := find . \( -path ./bench -o -path './.*' \) -prune -o -name '*.go' ! -name '*_test.go'

loc:
	@for d in $$($(LOC_FILES) -printf '%h\n' | sort -u); do \
		printf '%6d %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) $$d; \
	done
	@printf '%6d total\n' $$($(LOC_FILES) -exec cat {} + | wc -l)

# Everything CI enforces, runnable locally in one shot.
ci: build vet fmt-check test race

# bench-smoke runs each tracked benchmark for exactly one iteration and
# writes the go-test JSON event stream (machine-readable: one JSON object
# per line, benchmark metrics inside the Output events) to BENCH_<date>.json.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(SMOKE_BENCHES)' -benchtime 1x -json . > $(BENCH_OUT)
	@grep -q 'ns/op' $(BENCH_OUT) || { echo "no benchmark results captured" >&2; exit 1; }
	@echo "wrote $(BENCH_OUT)"

# bench-check is the CI regression gate: rerun the tracked benches (3
# iterations to tame smoke-level noise) into an uncommitted scratch file and
# fail on >20% ns/op regressions against the committed baseline. Benches
# under 1ms are reported but not gated — at smoke iteration counts their
# noise exceeds any threshold worth enforcing.
bench-check:
	@test -n "$(BASELINE)" || { echo "bench-check: no committed BENCH_*.json baseline — run 'make bench-smoke' and commit the BENCH_<date>.json it writes" >&2; exit 1; }
	@git cat-file -e HEAD:$(BASELINE) 2>/dev/null || { echo "bench-check: $(BASELINE) is tracked but not committed on HEAD — commit it before gating" >&2; exit 1; }
	git show HEAD:$(BASELINE) > bench_baseline.json
	$(GO) test -run '^$$' -bench '$(SMOKE_BENCHES)' -benchtime 3x -json . > bench_current.json
	$(GO) run ./cmd/benchdiff -baseline bench_baseline.json -current bench_current.json -threshold 0.20

# serve-smoke is the end-to-end serving check: train a tiny model, start
# `qkernel serve` on a free port, POST one prediction and assert HTTP 200
# with scores — the whole persistence + HTTP + batching stack in one shot.
serve-smoke:
	sh scripts/serve_smoke.sh

# load-smoke is the p99-gated load harness: train two tiny models, serve them
# from one registry, drive 200 concurrent loadgen clients across both (with a
# hot reload fired mid-run), and fail on any 5xx or p99 over the budget.
# Tunables: LOAD_CLIENTS, LOAD_DURATION, LOAD_P99_BUDGET_MS (env).
load-smoke:
	sh scripts/load_smoke.sh

# calib-smoke is the end-to-end calibrated-prediction check: train with
# conformal calibration at α=0.1, assert the narrated held-out coverage lands
# in [0.85, 1.0], serve the model, assert POST /predict carries prediction
# sets and /metrics a well-formed confidence histogram (via cmd/obscheck).
calib-smoke:
	sh scripts/calib_smoke.sh

# obs-smoke is the end-to-end observability check: train with -trace and
# validate the Chrome trace-event JSON via cmd/obscheck, then serve with
# tracing + pprof, fire a request, and assert its X-Request-Id fetches a
# span tree from /debug/trace/{id}, /metrics carries well-formed latency
# histogram families, and the pprof side port returns a CPU profile.
obs-smoke:
	sh scripts/obs_smoke.sh

clean:
	rm -f BENCH_*.json bench_current.json bench_baseline.json
