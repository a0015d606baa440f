// Package kernel implements the paper's quantum kernel framework (sections
// II-A and II-D, single-machine form): mapping data points to MPS-simulated
// quantum states through the feature-map circuit, computing the Gram matrix
// K_ij = |⟨ψ(x_i), ψ(x_j)⟩|² from pairwise overlaps with goroutine-level
// parallelism, and the Gaussian RBF baseline kernel of equation (9) used for
// the Table II comparison.
//
// The package exploits the paper's key structural insight: the number of MPS
// simulations scales linearly with the number of data points, while the
// quadratic scaling applies only to the (much cheaper) inner products — each
// of which is independent and embarrassingly parallel. The multi-process
// distribution strategies of Fig. 4 live in internal/dist.
package kernel

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/dataset"
	"repro/internal/mps"
	"repro/internal/obs"
	"repro/internal/statecache"
)

// Quantum is a quantum kernel: a feature-map ansatz plus an MPS simulator
// configuration.
type Quantum struct {
	Ansatz circuit.Ansatz
	Config mps.Config
	// Workers bounds simulation/inner-product concurrency; ≤0 selects
	// GOMAXPROCS.
	Workers int
	// Cache, when non-nil, memoises simulated states across State/States/
	// Gram/Cross calls (and across the distributed strategies in
	// internal/dist). Keys fingerprint the ansatz, the simulator
	// configuration and the exact data row, so mutating Ansatz or Config
	// naturally invalidates prior entries. States returned through the
	// cache are shared — callers must treat them as read-only, which every
	// consumer in this repository does (overlaps and serialisation only).
	Cache *statecache.Cache

	// built holds the Fingerprint of Ansatz and Config and, once a row is
	// simulated, Ansatz compiled (circuit.Compile), keyed by the values they
	// were built from so a reassigned Ansatz or Config rebuilds both.
	built atomic.Pointer[compiled]
}

// compiled is the fingerprint and the compiled program of one Ansatz and
// Config value.
type compiled struct {
	a    circuit.Ansatz
	cfg  mps.Config
	fp   string
	once sync.Once
	p    *circuit.Program
	err  error
}

// compiled returns the fingerprint and program holder for q's current
// Ansatz and Config, making a new one on first use and whenever either has
// been reassigned since. Concurrent first uses may each make one; they hold
// the same values.
func (q *Quantum) compiled() *compiled {
	c := q.built.Load()
	if c == nil || c.a != q.Ansatz || c.cfg != q.Config {
		c = &compiled{a: q.Ansatz, cfg: q.Config, fp: fingerprint(q.Ansatz, q.Config)}
		q.built.Store(c)
	}
	return c
}

// program compiles the feature map on first use, so a Fingerprint alone (a
// model load's integrity check) never pays for a compile.
func (c *compiled) program() (*circuit.Program, error) {
	c.once.Do(func() { c.p, c.err = circuit.Compile(c.a) })
	return c.p, c.err
}

func (q *Quantum) workers() int {
	if q.Workers > 0 {
		return q.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Fingerprint encodes the full simulation context — everything besides the
// data row that determines the simulated state — for cache keying and for
// model-persistence integrity checks (core.LoadModel refuses a model whose
// saved fingerprint no longer matches the reconstructed kernel). The
// zero-value Config aliases (nil backend → serial, zero budget → default)
// are normalised so equivalent configurations share entries. The three
// literal false slots keep the format every saved model was written with.
// The string is built once per Ansatz and Config value, not once per row.
func (q *Quantum) Fingerprint() string { return q.compiled().fp }

func fingerprint(a circuit.Ansatz, cfg mps.Config) string {
	be := "serial"
	if cfg.Backend != nil {
		be = cfg.Backend.Name()
	}
	tb := cfg.TruncationBudget
	if tb == 0 {
		tb = mps.DefaultTruncationBudget
	}
	return fmt.Sprintf("ansatz:%d/%d/%d/%x|cfg:%s/%x/%d/false/%t/false/false",
		a.Qubits, a.Layers, a.Distance, math.Float64bits(a.Gamma),
		be, math.Float64bits(tb), cfg.MaxBond, cfg.RecordMemory)
}

// simulate runs the feature-map circuit for one data point unconditionally:
// it binds the row into the workspace's circuit with the compiled program
// (no per-row gate list, routing or matrix allocation) and runs the engine
// on the workspace's scratch state, which emits the finished state as one
// slab — see mps.SimWorkspace.Simulate. sw, when non-nil, is the
// caller-owned per-worker workspace, so buffers warmed by earlier rows are
// reused; nil borrows an idle one for the row. The returned state shares no
// storage with sw and may outlive it (cache residency, model retention).
func (q *Quantum) simulate(x []float64, sw *mps.SimWorkspace) (*mps.MPS, error) {
	p, err := q.compiled().program()
	if err != nil {
		return nil, err
	}
	if sw == nil {
		sw = mps.AcquireSimWorkspace()
		defer sw.Release()
	}
	c := sw.Circuit()
	if err := p.Bind(x, c); err != nil {
		return nil, err
	}
	return sw.Simulate(c, q.Config)
}

// State simulates the feature-map circuit for one data point, returning its
// MPS (from the cache when one is configured and warm). The data point must
// already be rescaled into (0,2).
func (q *Quantum) State(x []float64) (*mps.MPS, error) {
	st, _, err := q.StateCachedSpan(x, nil, nil)
	return st, err
}

// StateCachedSpan is the full per-row form of State, the one path every row
// of every kernel, distributed strategy and serving batch is simulated
// through. hit is true when the simulation was avoided, either because the
// state was resident in the cache or because a concurrent caller was
// already simulating the same key (the cache deduplicates in-flight work);
// with no cache configured it always simulates and reports a miss. sw, when
// non-nil, is the caller's per-worker simulation workspace, so cache misses
// simulate through warmed buffers. sp, when non-nil, receives the cache
// lookup outcome (hit / in-flight join / compute, with durations) as
// events; spans thread through here as explicit parameters rather than
// contexts because this is the per-row hot path.
func (q *Quantum) StateCachedSpan(x []float64, sw *mps.SimWorkspace, sp *obs.Span) (st *mps.MPS, hit bool, err error) {
	if q.Cache == nil {
		st, err = q.simulate(x, sw)
		return st, false, err
	}
	key := statecache.KeyFor(q.compiled().fp, x)
	return q.Cache.GetOrComputeTraced(key, sp, func() (*mps.MPS, error) { return q.simulate(x, sw) })
}

// BandWidth is the number of rows a States or CrossStates worker claims per
// step. It is always 1: every worker claims one row at a time, so no core
// idles while another still holds unclaimed rows.
func (q *Quantum) BandWidth() int { return 1 }

// States simulates every row of X on a bounded worker pool — the
// linear-cost stage of the framework. Rows are scheduled as eachRow does, so
// a 100k-row dataset costs 100k simulations but only a handful of
// goroutines, and a warm worker's row allocates only its finished state.
// Every state is the one State would return for its row.
func (q *Quantum) States(X [][]float64) ([]*mps.MPS, error) {
	states := make([]*mps.MPS, len(X))
	errs := make([]error, len(X))
	q.eachRow(len(X), func(i int, sw *mps.SimWorkspace, _ *mps.Workspace) {
		states[i], _, errs[i] = q.StateCachedSpan(X[i], sw, nil)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("kernel: state %d: %w", i, err)
		}
	}
	return states, nil
}

// CrossStates is the inference kernel: testX against training states that
// are already simulated (a model's retained handles, the paper's "store the
// MPS"), so only the test rows are simulated and nothing is exchanged. Each
// test row is one task — materialised through StateCachedSpan, then its
// overlaps with every training state fill its row — scheduled as eachRow
// does. Every entry is == to CrossFromStates(States(testX), train). sp, when
// non-nil, receives one "row" child per test row carrying its index and
// cache outcome.
func (q *Quantum) CrossStates(testX [][]float64, train []*mps.MPS, sp *obs.Span) ([][]float64, error) {
	for j, st := range train {
		if st == nil {
			return nil, fmt.Errorf("kernel: nil training state %d", j)
		}
		// A test row of the wrong width fails its circuit build; a training
		// state of the wrong width must fail too, not panic in the overlap.
		if st.N != q.Ansatz.Qubits {
			return nil, fmt.Errorf("kernel: training state %d has %d qubits, ansatz has %d", j, st.N, q.Ansatz.Qubits)
		}
	}
	k := make([][]float64, len(testX))
	errs := make([]error, len(testX))
	q.eachRow(len(testX), func(i int, sw *mps.SimWorkspace, ws *mps.Workspace) {
		rowSp := sp.Child("row")
		defer rowSp.End()
		rowSp.SetAttr("row", i)
		st, hit, err := q.StateCachedSpan(testX[i], sw, rowSp)
		if err != nil {
			rowSp.SetAttr("error", err.Error())
			errs[i] = err
			return
		}
		rowSp.SetAttr("hit", hit)
		row := make([]float64, len(train))
		for j, tr := range train {
			row[j] = ws.Overlap(st, tr)
		}
		k[i] = row
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("kernel: test state %d: %w", i, err)
		}
	}
	return k, nil
}

// eachRow runs task(i, …) for every row i in [0, n). Rows are claimed one at
// a time through an atomic cursor by min(Workers, n) goroutines, so no core
// idles while another still holds unclaimed rows; each goroutine holds one
// simulation and one overlap workspace from mps's idle sets for the whole
// call. A single worker runs the rows on the caller's goroutine.
func (q *Quantum) eachRow(n int, task func(i int, sw *mps.SimWorkspace, ws *mps.Workspace)) {
	var next atomic.Int64
	run := func() {
		sw, ws := mps.AcquireSimWorkspace(), mps.AcquireWorkspace()
		defer sw.Release()
		defer ws.Release()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			task(i, sw, ws)
		}
	}
	w := min(q.workers(), n)
	if w == 1 {
		run()
		return
	}
	var wg sync.WaitGroup
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
}

// Gram computes the full symmetric Gram matrix for X: simulate each state
// once, then fill the upper triangle with pairwise overlaps in parallel and
// mirror it. The diagonal is exactly 1 for normalised states and is set from
// the actual self-overlap (≈1 up to truncation error).
func (q *Quantum) Gram(X [][]float64) ([][]float64, error) {
	states, err := q.States(X)
	if err != nil {
		return nil, err
	}
	return GramFromStates(states, q.workers()), nil
}

// Cross computes the rectangular kernel between test rows and train rows,
// used at inference time.
func (q *Quantum) Cross(Xtest, Xtrain [][]float64) ([][]float64, error) {
	ts, err := q.States(Xtest)
	if err != nil {
		return nil, err
	}
	tr, err := q.States(Xtrain)
	if err != nil {
		return nil, err
	}
	return CrossFromStates(ts, tr, q.workers()), nil
}

// overlapBand is the number of matrix rows claimed per scheduling step of
// the overlap stage. Bands amortise scheduling to one atomic increment per
// band (the old path paid a channel send per entry) while staying small
// enough that dynamic claiming load-balances the triangle's uneven rows.
const overlapBand = 8

// forEachBand distributes the row range [0, rows) over workers goroutines in
// bands of overlapBand rows, giving each worker a private overlap workspace
// so the inner-product stage performs zero per-pair heap allocations.
func forEachBand(rows, workers int, fill func(w *mps.Workspace, lo, hi int)) {
	if rows <= 0 {
		return
	}
	bands := (rows + overlapBand - 1) / overlapBand
	if workers < 1 {
		workers = 1
	}
	if workers > bands {
		workers = bands
	}
	if workers == 1 {
		fill(mps.NewWorkspace(), 0, rows)
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := mps.NewWorkspace()
			for {
				band := int(next.Add(1))
				if band >= bands {
					return
				}
				lo := band * overlapBand
				hi := lo + overlapBand
				if hi > rows {
					hi = rows
				}
				fill(w, lo, hi)
			}
		}()
	}
	wg.Wait()
}

// GramFromStates fills the symmetric overlap matrix from simulated states.
// Each entry is the paper's K_ij = |⟨ψ_i, ψ_j⟩|²; the N(N+1)/2 upper-triangle
// entries are computed in row bands distributed over workers goroutines and
// mirrored into the lower triangle.
func GramFromStates(states []*mps.MPS, workers int) [][]float64 {
	n := len(states)
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
	}
	forEachBand(n, workers, func(w *mps.Workspace, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := k[i]
			for j := i; j < n; j++ {
				v := w.Overlap(states[i], states[j])
				row[j] = v
				k[j][i] = v
			}
		}
	})
	return k
}

// CrossFromStates fills the rectangular overlap matrix test×train, row bands
// over the test states.
func CrossFromStates(test, train []*mps.MPS, workers int) [][]float64 {
	k := make([][]float64, len(test))
	for i := range k {
		k[i] = make([]float64, len(train))
	}
	forEachBand(len(test), workers, func(w *mps.Workspace, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := k[i]
			for j := range train {
				row[j] = w.Overlap(test[i], train[j])
			}
		}
	})
	return k
}

// Gaussian is the classical RBF baseline of equation (9):
// k(x,x') = exp(−α‖x−x'‖²).
type Gaussian struct {
	Alpha float64
}

// NewGaussianFromData sets the bandwidth the way the paper does:
// α = 1/(m·var(X)) for feature count m and mean per-feature variance of X.
func NewGaussianFromData(d *dataset.Dataset) Gaussian {
	v := dataset.Variance(d)
	m := float64(d.Features())
	if v <= 0 || m == 0 {
		return Gaussian{Alpha: 1}
	}
	return Gaussian{Alpha: 1 / (m * v)}
}

// Entry evaluates the Gaussian kernel for a pair of points.
func (g Gaussian) Entry(x, y []float64) float64 {
	var d2 float64
	for i := range x {
		d := x[i] - y[i]
		d2 += d * d
	}
	return math.Exp(-g.Alpha * d2)
}

// Gram computes the symmetric Gaussian Gram matrix.
func (g Gaussian) Gram(X [][]float64) [][]float64 {
	n := len(X)
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		k[i][i] = 1
		for j := i + 1; j < n; j++ {
			v := g.Entry(X[i], X[j])
			k[i][j], k[j][i] = v, v
		}
	}
	return k
}

// Cross computes the rectangular Gaussian kernel A×B.
func (g Gaussian) Cross(A, B [][]float64) [][]float64 {
	k := make([][]float64, len(A))
	for i := range k {
		k[i] = make([]float64, len(B))
		for j := range B {
			k[i][j] = g.Entry(A[i], B[j])
		}
	}
	return k
}
