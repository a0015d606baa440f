// Package backend provides the pluggable execution engines for tensor
// contraction and decomposition used by the MPS simulator.
//
// The paper compares two backends: ITensors on CPUs and pytket-cutensornet on
// NVIDIA A100 GPUs, finding a crossover in runtime as the circuit ansatz's
// bond dimension grows (Fig. 5, Table I). Neither a Julia runtime nor a GPU
// is available here, so the two roles are reproduced with two genuine Go
// implementations that have the same performance *shape*:
//
//   - Serial — a lean, single-threaded code path with minimal per-op
//     overhead. Like the CPU backend of the paper, it is fastest when bond
//     dimensions are small.
//   - Parallel — a throughput-oriented engine that distributes the matrix
//     products and the dense stages of the truncation SVD over a worker
//     pool and pays a fixed per-operation dispatch latency, modelling the
//     kernel-launch and host↔device transfer overhead that makes real GPUs
//     lose at small sizes and win at large ones.
//
// Both backends implement the identical MPS algorithm (they share the
// numeric kernels in internal/linalg), so — exactly as the paper observes in
// Table I — the bond dimensions they produce agree, and only wall-clock time
// differs.
package backend

import (
	"sync/atomic"
	"time"

	"repro/internal/linalg"
)

// Backend is the contraction/decomposition engine interface consumed by the
// MPS simulator: the gate engine calls MatMulInto and SVDTruncLazy, and
// overlaps (and the mps tests' reference chain) call MatMul. Everything else
// — QR/LQ canonicalisation and the reference SVD — runs the linalg routines
// directly, identically on every backend.
type Backend interface {
	// Name identifies the backend in experiment output ("serial"/"parallel").
	Name() string
	// MatMul computes a·b.
	MatMul(a, b *linalg.Matrix) *linalg.Matrix
	// MatMulInto computes dst = a·b into the caller's reusable buffer —
	// the zero-realloc contraction primitive of the MPS gate engine.
	// Results are bit-identical to MatMul on every backend.
	MatMulInto(dst, a, b *linalg.Matrix) *linalg.Matrix
	// SVDTruncLazy begins the two-phase truncation SVD (linalg.SVDTruncLazy):
	// the returned handle carries the full singular spectrum (enough for the
	// MPS truncation cut) and its Factors method materialises the thin
	// factors for the kept rank only, skipping the re-orthonormalisation
	// work the cut discards. Results are bit-identical across backends.
	SVDTruncLazy(ws *linalg.Workspace, m *linalg.Matrix) linalg.TruncSVD
	// Stats exposes the instrumentation counters.
	Stats() *Stats
}

// Stats counts operations and accumulated wall-clock time per primitive.
// All fields are updated atomically; Snapshot returns a consistent copy.
// No Backend method runs a QR, so QROps and QRNanos stay zero; they remain
// because the benchmark's per-layer report reads them.
type Stats struct {
	MatMulOps   atomic.Int64
	MatMulNanos atomic.Int64
	SVDOps      atomic.Int64
	SVDNanos    atomic.Int64
	QROps       atomic.Int64
	QRNanos     atomic.Int64
}

// StatsSnapshot is a plain-value copy of Stats for reporting.
type StatsSnapshot struct {
	MatMulOps  int64
	MatMulTime time.Duration
	SVDOps     int64
	SVDTime    time.Duration
	QROps      int64
	QRTime     time.Duration
}

// Snapshot returns the current counter values.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		MatMulOps:  s.MatMulOps.Load(),
		MatMulTime: time.Duration(s.MatMulNanos.Load()),
		SVDOps:     s.SVDOps.Load(),
		SVDTime:    time.Duration(s.SVDNanos.Load()),
		QROps:      s.QROps.Load(),
		QRTime:     time.Duration(s.QRNanos.Load()),
	}
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.MatMulOps.Store(0)
	s.MatMulNanos.Store(0)
	s.SVDOps.Store(0)
	s.SVDNanos.Store(0)
	s.QROps.Store(0)
	s.QRNanos.Store(0)
}

// TotalTime is the summed wall-clock across primitives.
func (s StatsSnapshot) TotalTime() time.Duration {
	return s.MatMulTime + s.SVDTime + s.QRTime
}
