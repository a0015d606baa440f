#!/usr/bin/env sh
# obs-smoke: the end-to-end observability check used by `make obs-smoke` and
# CI. Trains a tiny model with -trace and validates the Chrome trace-event
# JSON (obscheck asserts the fit→gram→rank→row span tree), then serves the
# model with tracing and pprof enabled, fires a predict, and asserts:
#   - the response carries an X-Request-Id whose /debug/trace/{id} tree has
#     the queue_wait/batch_compute/scatter phases, and the batch trace that
#     batch_compute links carries the cross_kernel span and its row spans,
#   - /metrics parses with both latency histogram families (obscheck checks
#     the le="+Inf" bucket equals _count per labelset),
#   - /debug/pprof/profile on the side port returns a real CPU profile.
set -eu

tmp=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/qkernel" ./cmd/qkernel
go build -o "$tmp/obscheck" ./cmd/obscheck

# 1. Train with -trace and validate the exported span tree.
"$tmp/qkernel" train -size 16 -features 6 -procs 2 -out "$tmp/model.bin" \
    -trace "$tmp/trace.json" >/dev/null
"$tmp/obscheck" -trace "$tmp/trace.json" \
    -require 'fit,gram,rank 0,rank 1,simulate,row,svm_train,cross_kernel'

# 2. Serve with tracing + pprof and fire one traced request.
"$tmp/qkernel" serve -addr 127.0.0.1:0 -pprof-addr 127.0.0.1:0 \
    -model "$tmp/model.bin" >"$tmp/serve.log" 2>&1 &
server_pid=$!

url=""
i=0
while [ $i -lt 50 ]; do
    # The pprof line also prints an http:// URL; the serve URL is the one on
    # the "listening on" line.
    url=$(grep 'listening on' "$tmp/serve.log" | grep -o 'http://[0-9.:]*' | head -n 1 || true)
    [ -n "$url" ] && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "obs-smoke: server exited early" >&2
        cat "$tmp/serve.log" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$url" ]; then
    echo "obs-smoke: server never reported its listen address" >&2
    cat "$tmp/serve.log" >&2
    exit 1
fi
pprof_url=$(grep 'pprof' "$tmp/serve.log" | grep -o 'http://[0-9.:]*' | head -n 1 || true)
if [ -z "$pprof_url" ]; then
    echo "obs-smoke: server never reported its pprof address" >&2
    cat "$tmp/serve.log" >&2
    exit 1
fi

code=$(curl -s -D "$tmp/headers.txt" -o "$tmp/resp.json" -w '%{http_code}' \
    -X POST "$url/predict" -H 'Content-Type: application/json' \
    -d '{"rows":[[1,1,1,1,1,1]]}')
if [ "$code" != 200 ]; then
    echo "obs-smoke: POST /predict returned HTTP $code" >&2
    cat "$tmp/resp.json" >&2 2>/dev/null || true
    exit 1
fi
req_id=$(grep -i '^x-request-id:' "$tmp/headers.txt" | tr -d '\r' | awk '{print $2}')
if [ -z "$req_id" ]; then
    echo "obs-smoke: response carries no X-Request-Id" >&2
    cat "$tmp/headers.txt" >&2
    exit 1
fi

# 3. The request's trace is retrievable and carries the batching phases.
sleep 0.3
curl -s "$url/debug/trace/$req_id" >"$tmp/reqtrace.json"
for phase in queue_wait batch_compute scatter; do
    if ! grep -q "\"$phase\"" "$tmp/reqtrace.json"; then
        echo "obs-smoke: /debug/trace/$req_id missing phase $phase" >&2
        cat "$tmp/reqtrace.json" >&2
        exit 1
    fi
done
# batch_compute is the one request span that links, and it links the batch.
batch_id=$(grep -o '"links":\["batch-[0-9a-f]*"' "$tmp/reqtrace.json" |
    grep -o 'batch-[0-9a-f]*' | head -n 1 || true)
if [ -z "$batch_id" ]; then
    echo "obs-smoke: batch_compute of $req_id links no batch trace" >&2
    cat "$tmp/reqtrace.json" >&2
    exit 1
fi
curl -s "$url/debug/trace/$batch_id" >"$tmp/batchtrace.json"
for span in cross_kernel row; do
    if ! grep -q "\"name\":\"$span\"" "$tmp/batchtrace.json"; then
        echo "obs-smoke: batch trace $batch_id missing span $span" >&2
        cat "$tmp/batchtrace.json" >&2
        exit 1
    fi
done

# 4. /metrics parses and both latency histogram families are well-formed.
curl -s "$url/metrics" >"$tmp/metrics.txt"
"$tmp/obscheck" -metrics "$tmp/metrics.txt" \
    -require-family 'qkernel_serve_request_seconds,qkernel_serve_queue_wait_seconds'

# 5. The pprof side port serves a real CPU profile.
curl -s -o "$tmp/profile.pb" "$pprof_url/debug/pprof/profile?seconds=1"
if [ ! -s "$tmp/profile.pb" ]; then
    echo "obs-smoke: /debug/pprof/profile returned an empty profile" >&2
    exit 1
fi

echo "obs-smoke: OK — trace $(wc -c <"$tmp/trace.json") bytes, request $req_id traced in batch $batch_id, histograms parse, pprof $(wc -c <"$tmp/profile.pb") bytes"
