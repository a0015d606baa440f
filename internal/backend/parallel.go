package backend

import (
	"runtime"
	"time"

	"repro/internal/linalg"
)

// DefaultDispatchOverhead models the fixed per-operation cost of a
// GPU-style accelerator: kernel launch, host↔device staging, Python-layer
// call overhead (all cited by the paper as the reason its GPU backend loses
// at small interaction distance). 20µs is in the ballpark of a real
// CUDA launch + small transfer.
const DefaultDispatchOverhead = 20 * time.Microsecond

// Parallel is the GPU-role backend: kernels fan out over a worker pool and
// every operation pays a fixed dispatch latency. Below a problem-size
// threshold the latency dominates (CPU/Serial wins); above it the extra
// throughput dominates (Parallel wins) — reproducing the paper's Fig. 5
// crossover.
type Parallel struct {
	workers  int
	overhead time.Duration
	stats    Stats
}

// NewParallel returns a Parallel backend with the given worker count and the
// default dispatch overhead. workers ≤ 0 selects GOMAXPROCS.
func NewParallel(workers int) *Parallel {
	return NewParallelWithOverhead(workers, DefaultDispatchOverhead)
}

// NewParallelWithOverhead allows tests and ablation benchmarks to control the
// modelled dispatch latency (0 disables it).
func NewParallelWithOverhead(workers int, overhead time.Duration) *Parallel {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if overhead < 0 {
		overhead = 0
	}
	return &Parallel{workers: workers, overhead: overhead}
}

// Name implements Backend.
func (p *Parallel) Name() string { return "parallel" }

// Workers returns the configured worker-pool width.
func (p *Parallel) Workers() int { return p.workers }

// Overhead returns the modelled per-op dispatch latency.
func (p *Parallel) Overhead() time.Duration { return p.overhead }

// dispatch burns the modelled launch latency. A busy-wait is used instead of
// time.Sleep because the Go timer's wake-up granularity (~1ms under load) is
// far coarser than realistic launch overheads (tens of µs); spinning keeps
// the model accurate at microsecond scale.
func (p *Parallel) dispatch() {
	if p.overhead <= 0 {
		return
	}
	deadline := time.Now().Add(p.overhead)
	for time.Now().Before(deadline) {
	}
}

// MatMul implements Backend with the row-block parallel kernel.
func (p *Parallel) MatMul(a, b *linalg.Matrix) *linalg.Matrix {
	t0 := time.Now()
	p.dispatch()
	c := linalg.MatMulParallel(a, b, p.workers)
	p.stats.MatMulOps.Add(1)
	p.stats.MatMulNanos.Add(time.Since(t0).Nanoseconds())
	return c
}

// MatMulInto implements Backend: the same dispatch latency as MatMul, with
// row blocks spread over the pool. Row partitioning keeps each output row's
// accumulation order serial, so results match the serial backend bit for bit.
func (p *Parallel) MatMulInto(dst, a, b *linalg.Matrix) *linalg.Matrix {
	t0 := time.Now()
	p.dispatch()
	c := linalg.MatMulIntoParallel(dst, a, b, p.workers)
	p.stats.MatMulOps.Add(1)
	p.stats.MatMulNanos.Add(time.Since(t0).Nanoseconds())
	return c
}

// SVDTruncLazy implements Backend: the two-phase truncation SVD with the
// dense phase-one products fanned over the pool; one dispatch latency is
// charged per decomposition (the deferred Factors call reuses the already
// staged operands, as a fused device kernel would).
func (p *Parallel) SVDTruncLazy(ws *linalg.Workspace, m *linalg.Matrix) linalg.TruncSVD {
	t0 := time.Now()
	p.dispatch()
	r := linalg.SVDTruncLazy(ws, m, p.workers)
	p.stats.SVDOps.Add(1)
	p.stats.SVDNanos.Add(time.Since(t0).Nanoseconds())
	return r
}

// Stats implements Backend.
func (p *Parallel) Stats() *Stats { return &p.stats }
