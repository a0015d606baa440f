# Build, test and smoke targets. Performance is measured by bench/ alone
# (bench/README.md): `bash bench/run.sh` runs the suite, and `bash bench/run.sh
# -compare a.json b.json` gives the verdict between two runs on one host.
# Package micro-benchmarks run with `go test -run '^$' -bench . ./internal/<pkg>`.
GO      ?= go

.PHONY: all build vet fmt-check test race loc serve-smoke load-smoke obs-smoke calib-smoke ci

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

# Everything CI enforces, runnable locally in one shot: the steps of
# .github/workflows/ci.yml's build, test and race jobs, in order.
ci: build vet fmt-check test serve-smoke load-smoke obs-smoke calib-smoke race

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
