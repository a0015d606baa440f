package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	servehttp "repro/internal/serve/http"
	"repro/internal/serve/registry"
)

// metric is one reported number; the map key is its declared name.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the single JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// op counts one operation — a Fit, Predict, Load, HTTP request or
// correctness check — and records why it failed, if it did.
func (r *result) op(err error) {
	r.Attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail records a failure that is not an operation of its own (a design
// assertion): the run is incorrect, the attempt count is unchanged.
func (r *result) fail(err error) {
	r.Failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, err.Error())
	}
}

// modelName is the registry name every workload serves its model under.
const modelName = "m"

// server is the real serving stack over a saved model: registry → batcher →
// router behind a loopback TCP listener.
type server struct {
	reg *registry.Registry
	ts  *httptest.Server
	url string
}

func startServer(w workload, modelPath string, tracer *obs.Tracer) (*server, error) {
	reg, err := registry.Open([]registry.Spec{{Name: modelName, Path: modelPath}}, registry.Config{
		CacheBudget: w.cacheBytes,
		Batch:       serve.Config{Obs: tracer},
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(servehttp.NewRouter(reg, servehttp.Config{Obs: tracer}).Handler())
	return &server{reg: reg, ts: ts, url: ts.URL + "/v1/models/" + modelName + "/predict"}, nil
}

func (s *server) close() {
	s.ts.Close()
	s.reg.Close()
}

func (s *server) stats() serve.Stats { return s.reg.Stats()[modelName] }

// stack is a workload set up and ready for timed work: inputs generated, the
// cycle-0 model trained, saved, and loaded into a live server.
type stack struct {
	in        *inputs
	modelPath string
	srv       *server
}

// setUp does everything that precedes timed work, once. It is timed as a
// whole: work a later change moves out of the timed phases lands here.
func setUp(w workload, seed int64, dir string) (*stack, error) {
	in, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	fw, err := core.New(w.options())
	if err != nil {
		return nil, err
	}
	c0 := in.window(w, 0)
	model, _, err := fw.Fit(c0.X, c0.y)
	if err != nil {
		return nil, fmt.Errorf("set-up fit: %w", err)
	}
	path := filepath.Join(dir, "model.bin")
	if err := model.Save(path); err != nil {
		return nil, err
	}
	srv, err := startServer(w, path, nil)
	if err != nil {
		return nil, err
	}
	st := &stack{in: in, modelPath: path, srv: srv}
	if _, err := newClient().predict(srv.url, in.requests(w, -1).next()); err != nil {
		srv.close()
		return nil, fmt.Errorf("set-up warm-up request: %w", err)
	}
	return st, nil
}

// setUpReps is how many times a run sets its workload up to take the median.
const setUpReps = 5

// setUpTimed sets the workload up setUpReps times and keeps the last stack;
// the reported set-up time is the median, so one slow start does not decide it.
func setUpTimed(w workload, seed int64, dir string) (*stack, float64, error) {
	var samples []float64
	pc := newPace()
	for i := 0; ; i++ {
		t0 := time.Now()
		st, err := setUp(w, seed, dir)
		if err != nil {
			return nil, 0, err
		}
		wall := time.Since(t0).Seconds()
		samples = append(samples, wall*pc.step())
		if i == setUpReps-1 {
			return st, median(samples), nil
		}
		st.srv.close()
	}
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

// reply is one answered request as the caller saw it.
type reply struct {
	status              int
	latency             time.Duration // send → body read
	reqBytes, respBytes int
	body                servehttp.PredictResponse
}

func (c *client) predict(url string, rows [][]float64) (*reply, error) {
	payload, err := json.Marshal(servehttp.PredictRequest{Rows: rows})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rp := &reply{status: resp.StatusCode, latency: time.Since(t0), reqBytes: len(payload), respBytes: len(raw)}
	if err != nil {
		return rp, err
	}
	if rp.status != http.StatusOK {
		return rp, fmt.Errorf("status %d: %s", rp.status, strings.TrimSpace(string(raw)))
	}
	if err := json.Unmarshal(raw, &rp.body); err != nil {
		return rp, err
	}
	return rp, checkReply(&rp.body, len(rows))
}

// checkReply holds every reply to the response contract: one finite score
// and label per row; a prediction set per row exactly when calibrated.
func checkReply(b *servehttp.PredictResponse, rows int) error {
	if err := checkScores(b.Scores, rows); err != nil {
		return err
	}
	if len(b.Labels) != rows {
		return fmt.Errorf("reply has %d labels for %d rows", len(b.Labels), rows)
	}
	want := 0
	if b.Calibrated {
		want = rows
	}
	if len(b.Predictions) != want {
		return fmt.Errorf("calibrated=%t reply has %d prediction sets for %d rows", b.Calibrated, len(b.Predictions), rows)
	}
	return nil
}

// httpSegment is what nproc closed-loop clients saw over one timed segment.
// Latencies and busy time are in nominal-speed units (see yardstick.go).
type httpSegment struct {
	latMS               []float64
	busy                float64 // seconds the clients were sending
	reqBytes, respBytes int64
	status              map[int]int
	dilation            []float64
}

// segmentWindow is how long clients send between two yardstick passes.
const segmentWindow = time.Second

// driveHTTP runs one closed-loop segment: exactly nproc callers, each on its
// own connection, each sending its next request only when the previous reply
// has been read. do is the transport under test (HTTP or in-process). The
// segment is cut into windows with a yardstick pass between them, and each
// window's latencies are scaled by the machine's speed around it.
func driveHTTP(w workload, in *inputs, res *result, dur time.Duration, do func(c int, rows [][]float64) (*reply, error)) httpSegment {
	type tally struct {
		src   *requestSource
		latMS []float64
		res   result
	}
	tallies := make([]tally, runtime.GOMAXPROCS(0))
	for c := range tallies {
		tallies[c].src = in.requests(w, c)
	}
	seg := httpSegment{status: map[int]int{}}
	var mu sync.Mutex // guards seg's byte and status counters within a window
	pc := newPace()
	for start := time.Now(); time.Since(start) < dur; {
		window := min(segmentWindow, dur-time.Since(start))
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := range tallies {
			wg.Add(1)
			go func(c int, t *tally) {
				defer wg.Done()
				for time.Since(t0) < window {
					rp, err := do(c, t.src.next())
					if err == nil && rp.body.Calibrated != (w.calibFrac > 0) {
						err = fmt.Errorf("reply calibrated=%t on a workload with CalibFrac=%v", rp.body.Calibrated, w.calibFrac)
					}
					t.res.op(err)
					if rp == nil {
						continue
					}
					if err == nil {
						t.latMS = append(t.latMS, float64(rp.latency)/1e6)
					}
					mu.Lock()
					seg.status[rp.status]++
					seg.reqBytes += int64(rp.reqBytes)
					seg.respBytes += int64(rp.respBytes)
					mu.Unlock()
				}
			}(c, &tallies[c])
		}
		wg.Wait()
		wall := time.Since(t0).Seconds()
		scale := pc.step()
		seg.busy += wall * scale
		for c := range tallies {
			for _, ms := range tallies[c].latMS {
				seg.latMS = append(seg.latMS, ms*scale)
			}
			tallies[c].latMS = tallies[c].latMS[:0]
		}
	}
	for _, t := range tallies {
		res.Attempted += t.res.Attempted
		res.Failed += t.res.Failed
		res.problems = append(res.problems, t.res.problems...)
	}
	seg.dilation = pc.samples
	return seg
}

// overHTTP is driveHTTP's transport for the real listener: one client, and
// so one keep-alive connection, per caller.
func overHTTP(url string) func(int, [][]float64) (*reply, error) {
	clients := make([]*client, runtime.GOMAXPROCS(0))
	for i := range clients {
		clients[i] = newClient()
	}
	return func(c int, rows [][]float64) (*reply, error) { return clients[c].predict(url, rows) }
}

// touchPool sends every pool row once, so a pooled workload's timed segment
// starts with the pool's states resident.
func touchPool(w workload, st *stack) error {
	c := newClient()
	for lo := 0; lo < w.pool; lo += 8 {
		if _, err := c.predict(st.srv.url, st.in.testX[lo:min(lo+8, w.pool)]); err != nil {
			return fmt.Errorf("touching pool: %w", err)
		}
	}
	return nil
}

// trainPhase runs cold Fit → Predict → Save → Load cycles for dur and returns
// each stage's time per cycle, in seconds at nominal machine speed: a
// yardstick pass separates the cycles.
func trainPhase(w workload, in *inputs, res *result, dur time.Duration, dir string) (fit, predict, load []float64) {
	path := filepath.Join(dir, "cycle.bin")
	pc := newPace()
	for c, start := 1, time.Now(); time.Since(start) < dur; c++ {
		walls, err := trainCycle(w, in.window(w, c), path, res)
		scale := pc.step()
		if err != nil {
			continue // counted by trainCycle; a broken cycle contributes no timings
		}
		fit = append(fit, walls[0]*scale)
		predict = append(predict, walls[1]*scale)
		load = append(load, walls[2]*scale)
	}
	return fit, predict, load
}

// trainCycle is one cold Fit, Predict, Save and Load on a cycle's rows; it
// returns the Fit, Predict and Load walls in seconds and counts every
// operation on res.
func trainCycle(w workload, cy cycle, path string, res *result) (walls [3]float64, err error) {
	timed := func(i int, op func() error) error {
		t0 := time.Now()
		err := op()
		walls[i] = time.Since(t0).Seconds()
		res.op(err)
		return err
	}
	fw, err := core.New(w.options())
	if err != nil {
		res.op(err)
		return walls, err
	}
	var model *core.Model
	if err := timed(0, func() (err error) {
		model, _, err = fw.Fit(cy.X, cy.y)
		return err
	}); err != nil {
		return walls, err
	}
	if err := timed(1, func() error {
		scores, err := fw.Predict(model, cy.T)
		if err != nil {
			return err
		}
		return checkScores(scores, len(cy.T))
	}); err != nil {
		return walls, err
	}
	if err := model.Save(path); err != nil {
		res.op(err)
		return walls, err
	}
	return walls, timed(2, func() error {
		_, loaded, err := core.LoadModel(path)
		if err == nil && (len(loaded.TrainX) != len(model.TrainX) || len(loaded.States) != len(model.States)) {
			err = fmt.Errorf("loaded model has %d rows / %d states, saved %d / %d",
				len(loaded.TrainX), len(loaded.States), len(model.TrainX), len(model.States))
		}
		return err
	})
}

func checkScores(scores []float64, rows int) error {
	if len(scores) != rows {
		return fmt.Errorf("%d scores for %d rows", len(scores), rows)
	}
	for _, s := range scores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("non-finite score %v", s)
		}
	}
	return nil
}

// checkProbes holds the served model to the in-process one: the scores of
// the fixed probe rows over HTTP equal Framework.Predict on the model the
// server loaded to 1e-12, and — for a seed with a committed reference — the
// reference to 1e-6.
func checkProbes(w workload, st *stack, res *result, run runConfig) {
	probes := st.in.probes()
	rp, err := newClient().predict(st.srv.url, probes)
	res.op(err)
	if err != nil {
		return
	}
	inst, err := st.srv.reg.Get(modelName)
	if err != nil {
		res.op(err)
		return
	}
	want, err := inst.Batcher.Framework().Predict(inst.Batcher.Model(), probes)
	if err == nil {
		err = compareScores("HTTP vs in-process Predict", rp.body.Scores, want, 1e-12)
	}
	res.op(err)

	refPath := filepath.Join(run.root, "bench", "ref", fmt.Sprintf("%s.seed%d.json", w.name, run.seed))
	if run.writeRef {
		blob, _ := json.MarshalIndent(rp.body.Scores, "", " ")
		if err := os.MkdirAll(filepath.Dir(refPath), 0o755); err != nil {
			res.op(err)
			return
		}
		res.op(os.WriteFile(refPath, append(blob, '\n'), 0o644))
		return
	}
	if run.smoke {
		return
	}
	blob, err := os.ReadFile(refPath)
	if os.IsNotExist(err) && run.seed != 1 {
		return // only seed 1 must have a committed reference
	}
	var ref []float64
	if err == nil {
		err = json.Unmarshal(blob, &ref)
	}
	if err == nil {
		err = compareScores("HTTP vs "+refPath, rp.body.Scores, ref, 1e-6)
	}
	res.op(err)
}

func compareScores(what string, got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d scores vs %d", what, len(got), len(want))
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); !(d <= tol) {
			return fmt.Errorf("%s: row %d differs by %.3g (> %g)", what, i, d, tol)
		}
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			_, err := fmt.Sscan(rest, &kb) // "   61234 kB"
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runEndToEnd is one untraced run: set-up, then the workload's share of the
// timed seconds in the train loop and the rest in the served segment, then
// the correctness checks.
func runEndToEnd(w workload, run runConfig) (*result, error) {
	res := newResult()
	st, setupS, err := setUpTimed(w, run.seed, run.dir)
	if err != nil {
		return nil, err
	}
	defer st.srv.close()
	if err := touchPool(w, st); err != nil {
		return nil, err
	}
	timed := run.seconds * float64(time.Second)
	trainDur := time.Duration(timed * w.trainShare)

	fit, predict, load := trainPhase(w, st.in, res, trainDur, run.dir)
	seg := driveHTTP(w, st.in, res, time.Duration(timed)-trainDur, overHTTP(st.srv.url))
	checkProbes(w, st, res, run)

	if !run.smoke && tailPercentile(len(seg.latMS)) < 0.99 {
		res.fail(fmt.Errorf("serve segment completed %d requests: too few for a p99 with ten samples beyond it", len(seg.latMS)))
	}
	fi, err := os.Stat(st.modelPath)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.set("setup_s", "s", setupS)
	res.set("fit_s", "s", median(fit))
	res.set("predict_s", "s", median(predict))
	res.set("load_s", "s", median(load))
	res.set("model_mb", "MB", float64(fi.Size())/1e6)
	res.set("http_p50_ms", "ms", median(seg.latMS))
	res.set("http_p99_ms", "ms", quantile(seg.latMS, 0.99))
	res.set("http_rps", "1/s", float64(len(seg.latMS))/seg.busy)
	res.set("peak_rss_mb", "MB", rss)
	fmt.Printf("%s seed=%d loop=closed clients=%d gomaxprocs=%d cycles=%d requests=%d dilation=%.2f\n",
		w.name, run.seed, runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0), len(fit), len(seg.latMS), median(seg.dilation))
	return res, nil
}
