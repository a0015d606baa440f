package backend

import (
	"time"

	"repro/internal/linalg"
)

// Serial is the CPU-role backend: single-threaded kernels with no dispatch
// overhead. It plays the part of the paper's ITensors/CPU configuration —
// favoured at small bond dimension.
type Serial struct {
	stats Stats
}

// NewSerial returns a Serial backend.
func NewSerial() *Serial { return &Serial{} }

// Name implements Backend.
func (s *Serial) Name() string { return "serial" }

// MatMul implements Backend using the single-threaded kernel.
func (s *Serial) MatMul(a, b *linalg.Matrix) *linalg.Matrix {
	t0 := time.Now()
	c := linalg.MatMulSerial(a, b)
	s.stats.MatMulOps.Add(1)
	s.stats.MatMulNanos.Add(time.Since(t0).Nanoseconds())
	return c
}

// MatMulInto implements Backend with the single-threaded in-place kernel.
func (s *Serial) MatMulInto(dst, a, b *linalg.Matrix) *linalg.Matrix {
	t0 := time.Now()
	c := linalg.MatMulInto(dst, a, b)
	s.stats.MatMulOps.Add(1)
	s.stats.MatMulNanos.Add(time.Since(t0).Nanoseconds())
	return c
}

// SVDTruncLazy implements Backend with the serial two-phase truncation path.
// The timed span covers phase one (Gram + eigensolve); the deferred Factors
// call runs on the caller's clock.
func (s *Serial) SVDTruncLazy(ws *linalg.Workspace, m *linalg.Matrix) linalg.TruncSVD {
	t0 := time.Now()
	r := linalg.SVDTruncLazy(ws, m, 1)
	s.stats.SVDOps.Add(1)
	s.stats.SVDNanos.Add(time.Since(t0).Nanoseconds())
	return r
}

// Stats implements Backend.
func (s *Serial) Stats() *Stats { return &s.stats }
