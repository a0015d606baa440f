package main

import (
	"fmt"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
)

// workload is one whole-path scenario: a model shape (what Fit, Predict,
// Save and Load cost) and a request pattern (what a served request costs).
// Every workload runs the same path — train → save → load → serve → HTTP
// predict — so every end-to-end metric exists on every workload; the shapes
// are chosen so that each layer is the dominant cost on one workload and
// bypassed on its twin.
type workload struct {
	name string

	qubits, distance int
	gamma            float64
	trainRows        int // rows per Fit
	testRows         int // rows per Predict
	procs            int // simulated ranks; >1 uses loopback TCP round-robin
	calibFrac        float64
	trainShare       float64 // share of the timed seconds spent in Fit cycles; the rest is the served segment

	cacheBytes int64 // serving state-cache budget
	rowsPerReq int
	pool       int // request rows drawn from a pool this size; 0 = never repeated
}

// workloads is the fixed suite, in the fixed order every round runs them.
// The one-line reasons live in BENCHMARK.json (and at length in README.md).
var workloads = []workload{
	{
		name:   "train_deep",
		qubits: 10, distance: 4, gamma: 1.0, trainRows: 24, testRows: 6, procs: 1, trainShare: 0.6,
		cacheBytes: 64 << 20, rowsPerReq: 1, pool: 32,
	},
	{
		name:   "train_wide",
		qubits: 64, distance: 1, gamma: 0.1, trainRows: 512, testRows: 64, procs: 2, trainShare: 0.6,
		cacheBytes: 64 << 20, rowsPerReq: 1, pool: 0,
	},
	{
		name:   "serve_fresh",
		qubits: 16, distance: 2, gamma: 0.5, trainRows: 64, testRows: 16, procs: 1, trainShare: 0.4,
		cacheBytes: 4 << 20, rowsPerReq: 1, pool: 0,
	},
	{
		name:   "serve_hot",
		qubits: 64, distance: 1, gamma: 0.1, trainRows: 256, testRows: 64, procs: 1, calibFrac: 0.2, trainShare: 0.4,
		cacheBytes: 64 << 20, rowsPerReq: 4, pool: 64,
	},
}

// smoke shrinks a workload to an 8-qubit model so the whole suite runs in a
// test's time budget; names, path and metrics are unchanged.
func (w workload) smoke() workload {
	w.qubits = 8
	w.distance = min(w.distance, 2)
	w.trainRows = min(w.trainRows, 40)
	w.testRows = min(w.testRows, 8)
	w.cacheBytes = min(w.cacheBytes, 256<<10)
	return w
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) ansatz() circuit.Ansatz {
	return circuit.Ansatz{Qubits: w.qubits, Layers: 2, Distance: w.distance, Gamma: w.gamma}
}

func (w workload) options() core.Options {
	a := w.ansatz()
	o := core.Options{
		Features: a.Qubits, Layers: a.Layers, Distance: a.Distance, Gamma: a.Gamma,
		Procs: w.procs, Strategy: dist.RoundRobin, CalibFrac: w.calibFrac,
	}
	if w.procs > 1 {
		o.Transport = dist.TCPTransport{}
	}
	return o
}

// inputs is everything a run derives from the seed. The program under test
// only ever receives rows taken from it.
type inputs struct {
	trainX [][]float64 // class-alternating pool that Fit windows slide over
	trainY []int
	testX  [][]float64 // Predict rows, probe rows and request base rows
	testY  []int
	seed   int64
}

// poolRows is the balanced sample the scaler is fitted on. It is much larger
// than any Fit window on purpose: the min–max scaler then sees nearly the
// same range under every seed, so the circuits' angles — and with them bond
// dimension and cost — are a property of the workload, not of the seed.
const poolRows = 1600

// generate draws the workload's inputs from the seed. The generator's heavy
// tail (Skew) is switched off for the same reason poolRows is large: one
// extreme row would otherwise rescale every other row of that seed.
func generate(w workload, seed int64) (*inputs, error) {
	full := dataset.GenerateElliptic(dataset.EllipticConfig{
		Features: w.qubits, NumIllicit: poolRows, NumLicit: poolRows, Seed: seed, Skew: -1,
	})
	train, test, err := dataset.PrepareSplit(full, poolRows, w.qubits, seed)
	if err != nil {
		return nil, fmt.Errorf("preparing data: %w", err)
	}
	in := &inputs{seed: seed}
	in.trainX, in.trainY = alternate(train)
	in.testX, in.testY = alternate(test)
	if len(in.trainX) < 2*w.trainRows || len(in.testX) < w.testRows+probeRows {
		return nil, fmt.Errorf("pool too small: %d train / %d test rows", len(in.trainX), len(in.testX))
	}
	return in, nil
}

// alternate reorders a dataset +1, −1, +1, … (dropping the longer class's
// surplus). PrepareSplit returns the classes in blocks; alternated, every
// Fit window, validation slice, calibration lattice and Predict batch holds
// both.
func alternate(d *dataset.Dataset) (X [][]float64, y []int) {
	var pos, neg []int
	for i, label := range d.Y {
		if label == dataset.Illicit {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	for i := 0; i < min(len(pos), len(neg)); i++ {
		X = append(X, d.X[pos[i]], d.X[neg[i]])
		y = append(y, dataset.Illicit, dataset.Licit)
	}
	return X, y
}

// cycle is the rows of one Fit (X, y) and the Predict that follows it (T, Ty).
type cycle struct {
	X  [][]float64
	y  []int
	T  [][]float64
	Ty []int
}

// window returns the rows of Fit/Predict cycle c. Cycle 0 is the model that
// is saved and served; later cycles slide over the pool so the median Fit is
// taken over many row sets, not one.
func (in *inputs) window(w workload, c int) cycle {
	lo := (c * w.trainRows) % (len(in.trainX) - w.trainRows + 1)
	lo -= lo % 2 // keep the +1/−1 alternation phase
	tlo := (c * w.testRows) % (len(in.testX) - w.testRows + 1)
	tlo -= tlo % 2
	return cycle{
		X: in.trainX[lo : lo+w.trainRows], y: in.trainY[lo : lo+w.trainRows],
		T: in.testX[tlo : tlo+w.testRows], Ty: in.testY[tlo : tlo+w.testRows],
	}
}

// probeRows is the number of fixed rows whose served scores are compared
// with in-process Predict (and, for seed 1, with the committed reference).
const probeRows = 32

func (in *inputs) probes() [][]float64 { return in.testX[len(in.testX)-probeRows:] }

// requestSource yields one client's request bodies. Fresh workloads perturb
// a base row by a seeded relative jitter, so no row ever repeats (the state
// cache can only miss) while the cost distribution stays that of the data;
// pooled workloads draw whole rows from a fixed pool (the cache can only
// hit once the pool has been touched).
type requestSource struct {
	w    workload
	base [][]float64
	rng  *rand.Rand
}

func (in *inputs) requests(w workload, client int) *requestSource {
	base := in.testX
	if w.pool > 0 {
		base = in.testX[:w.pool]
	}
	return &requestSource{w: w, base: base, rng: rand.New(rand.NewSource(in.seed*1000 + int64(client)))}
}

func (s *requestSource) next() [][]float64 {
	rows := make([][]float64, s.w.rowsPerReq)
	for i := range rows {
		row := s.base[s.rng.Intn(len(s.base))]
		if s.w.pool == 0 {
			fresh := make([]float64, len(row))
			for j, v := range row {
				// Features live in (0,2); a relative jitter keeps them there.
				fresh[j] = v * (1 - 1e-3*s.rng.Float64())
			}
			row = fresh
		}
		rows[i] = row
	}
	return rows
}
