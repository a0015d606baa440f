package http

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
)

// postPredictWithID posts rows and returns the response plus its
// X-Request-Id header.
func postPredictWithID(t *testing.T, url string, rows [][]float64, sendID string) (*http.Response, string) {
	t.Helper()
	body, err := json.Marshal(PredictRequest{Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if sendID != "" {
		req.Header.Set("X-Request-Id", sendID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp, resp.Header.Get("X-Request-Id")
}

// TestRequestIDAndDebugTrace: every predict response carries an
// X-Request-Id — generated when absent, propagated verbatim when supplied —
// and the ID fetches the request's span tree from /debug/trace/{id} with
// the queue_wait / batch_compute / scatter phases on it.
func TestRequestIDAndDebugTrace(t *testing.T) {
	tracer := obs.NewTracer(16)
	st := newStack(t, serve.Config{Obs: tracer}, Config{Obs: tracer})

	resp, gotID := postPredictWithID(t, st.ts.URL+"/predict", st.testX[:1], "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d", resp.StatusCode)
	}
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(gotID) {
		t.Fatalf("generated X-Request-Id %q is not a 16-hex-char ID", gotID)
	}

	resp, echoed := postPredictWithID(t, st.ts.URL+"/v1/models/beta/predict", st.testX[:1], "my-req-42")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d", resp.StatusCode)
	}
	if echoed != "my-req-42" {
		t.Fatalf("client-supplied X-Request-Id came back as %q", echoed)
	}

	var tr obs.TraceJSON
	getJSON(t, st.ts.URL+"/debug/trace/my-req-42", &tr)
	if tr.ID != "my-req-42" {
		t.Fatalf("trace id %q, want my-req-42", tr.ID)
	}
	names := map[string]*obs.SpanJSON{}
	for i := range tr.Spans {
		names[tr.Spans[i].Name] = &tr.Spans[i]
	}
	root, ok := names["request"]
	if !ok {
		t.Fatalf("no request root span in %v", tr.Spans)
	}
	if got, _ := root.Attrs["model"].(string); got != "beta" {
		t.Errorf("root model attr = %v, want beta", root.Attrs["model"])
	}
	if !root.Done {
		t.Error("request root span not ended")
	}
	for _, phase := range []string{"queue_wait", "batch_compute", "scatter"} {
		sp, ok := names[phase]
		if !ok {
			t.Fatalf("phase %q missing from request trace", phase)
		}
		if sp.Parent != root.ID {
			t.Errorf("phase %q hangs off span %d, want the request root %d", phase, sp.Parent, root.ID)
		}
	}
	// The batch_compute phase must link a batch trace that is itself
	// fetchable and links back.
	bc := names["batch_compute"]
	if len(bc.Links) != 1 {
		t.Fatalf("batch_compute links %v, want exactly one batch trace", bc.Links)
	}
	var batch obs.TraceJSON
	getJSON(t, st.ts.URL+"/debug/trace/"+bc.Links[0], &batch)
	back := false
	for _, id := range batch.Spans[0].Links {
		if id == "my-req-42" {
			back = true
		}
	}
	if !back {
		t.Fatalf("batch trace %s does not link back to my-req-42: %v", batch.ID, batch.Spans[0].Links)
	}

	var list traceListResponse
	getJSON(t, st.ts.URL+"/debug/trace", &list)
	found := false
	for _, id := range list.Traces {
		if id == "my-req-42" {
			found = true
		}
	}
	if !found {
		t.Fatalf("/debug/trace listing %v does not contain my-req-42", list.Traces)
	}

	if r, err := http.Get(st.ts.URL + "/debug/trace/no-such-id"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown trace id: status %d, want 404", r.StatusCode)
		}
	}
}

// TestDebugTraceDisabled: without a tracer the predict path still answers
// (with a generated X-Request-Id) and /debug/trace 404s rather than
// pretending an empty ring is a result.
func TestDebugTraceDisabled(t *testing.T) {
	st := newStack(t, serve.Config{}, Config{})
	resp, id := postPredictWithID(t, st.ts.URL+"/predict", st.testX[:1], "")
	if resp.StatusCode != http.StatusOK || id == "" {
		t.Fatalf("predict without tracer: status %d, id %q", resp.StatusCode, id)
	}
	for _, path := range []string{"/debug/trace", "/debug/trace/" + id} {
		r, err := http.Get(st.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s with tracing disabled: status %d, want 404", path, r.StatusCode)
		}
	}
}

// TestMetricsHistograms: after k requests the /metrics exposition carries
// both latency histogram families with per-model labels, and for each the
// le="+Inf" bucket equals the _count sample, which equals the request
// counter — buckets, count and counter all agree.
func TestMetricsHistograms(t *testing.T) {
	st := newStack(t, serve.Config{}, Config{})
	const k = 3
	for i := 0; i < k; i++ {
		resp, _ := postPredict(t, st.ts.URL+"/predict", st.testX[i:i+1])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(st.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(blob)

	for _, fam := range []string{"qkernel_serve_request_seconds", "qkernel_serve_queue_wait_seconds"} {
		if !strings.Contains(text, "# TYPE "+fam+" histogram") {
			t.Fatalf("family %s not declared as histogram", fam)
		}
		inf := metricValue(t, text, fmt.Sprintf(`%s_bucket{model="alpha",le="+Inf"}`, fam))
		count := metricValue(t, text, fmt.Sprintf(`%s_count{model="alpha"}`, fam))
		if inf != count {
			t.Errorf("%s: +Inf bucket %g != count %g", fam, inf, count)
		}
		if count != k {
			t.Errorf("%s: count %g, want %d (one per request)", fam, count, k)
		}
		requests := metricValue(t, text, `qkernel_serve_requests_total{model="alpha"}`)
		if count != requests {
			t.Errorf("%s: histogram count %g != request counter %g", fam, count, requests)
		}
		// Cumulative bucket counts never decrease.
		prev := -1.0
		for _, line := range strings.Split(text, "\n") {
			if !strings.HasPrefix(line, fam+`_bucket{model="alpha"`) {
				continue
			}
			var v float64
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			if v < prev {
				t.Fatalf("%s: cumulative bucket decreased: %q", fam, line)
			}
			prev = v
		}
	}
}

// metricValue extracts one sample value from the exposition text by its
// exact "name{labels}" prefix.
func metricValue(t *testing.T, text, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix+" ") {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, prefix+" "), "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no sample with prefix %q in exposition", prefix)
	return 0
}
