package mps

import (
	"fmt"
	"math/cmplx"

	"repro/internal/linalg"
)

// Workspace is a reusable scratch area for the zipper inner product of
// Fig. 2. The O(N²) pairwise-overlap stage of a Gram computation calls Inner
// millions of times on states whose bond dimensions repeat, so the dominant
// cost of the allocating path is not arithmetic but per-pair heap churn:
// every site step of mps.Inner materialises an environment matrix, a
// transfer matrix and a conjugate transpose. A Workspace keeps grow-only
// buffers for all three, so once warmed to the largest χ seen it computes
// inner products with zero heap allocations.
//
// A Workspace is NOT safe for concurrent use; give each worker goroutine its
// own (NewWorkspace is cheap — buffers grow lazily on first use).
type Workspace struct {
	envA, envB linalg.Matrix // ping-pong environment buffers
	tm         linalg.Matrix // transfer buffer: env · ket-site
	bview      linalg.Matrix // header-only view of the ket site tensor
	aview      linalg.Matrix // header-only view of the bra site tensor
	tview      linalg.Matrix // header-only reinterpretation of tm
}

// NewWorkspace returns an empty workspace; buffers are allocated on first
// use and grow to the largest bond dimension encountered.
func NewWorkspace() *Workspace { return &Workspace{} }

// Inner computes ⟨a|b⟩ exactly as mps.Inner (same contraction, same
// accumulation order, results ==) but reuses the workspace's buffers instead
// of allocating per site, and takes sites whose four bonds are all 2 through
// the fixed-shape transfer2 instead of the general matrix kernels.
//
// The zero-realloc path is inherently serial, so a non-serial backend on
// the bra state (the accelerator role of the Fig. 5 crossover, worthwhile
// at large χ) is honoured by delegating to InnerWith — backend selection
// keeps working through every Gram/Cross path.
func (w *Workspace) Inner(a, b *MPS) complex128 {
	if a.N != b.N {
		panic(fmt.Sprintf("mps: Inner on states of %d and %d qubits", a.N, b.N))
	}
	if be := a.cfg.Backend; be != nil && be.Name() != "serial" {
		return InnerWith(a, b, be)
	}
	// env[i][j] carries ⟨a-prefix|b-prefix⟩ with open bra bond i, ket bond j.
	env, next := &w.envA, &w.envB
	env.Reuse(1, 1)
	env.Data[0] = 1
	for site := 0; site < a.N; site++ {
		as := a.Sites[site] // (la,2,ra)
		bs := b.Sites[site] // (lb,2,rb)
		la, ra := as.Shape[0], as.Shape[2]
		lb, rb := bs.Shape[0], bs.Shape[2]
		if la == 2 && ra == 2 && lb == 2 && rb == 2 {
			transfer2((*[4]complex128)(env.Data), (*[8]complex128)(as.Data), (*[8]complex128)(bs.Data))
			continue
		}
		// T[i, s, rb] = Σ_j env[i,j]·bs[j,s,rb]
		w.bview.Rows, w.bview.Cols, w.bview.Data = lb, 2*rb, bs.Data
		linalg.MatMulInto(&w.tm, env, &w.bview)
		// env'[ra, rb] = Σ_{i,s} conj(as[i,s,ra]) · T[i,s,rb]; the (la, 2·rb)
		// transfer buffer reinterprets row-major as (la·2, rb) for free.
		w.aview.Rows, w.aview.Cols, w.aview.Data = la*2, ra, as.Data
		w.tview.Rows, w.tview.Cols, w.tview.Data = la*2, rb, w.tm.Data
		linalg.MatMulAdjAInto(next, &w.aview, &w.tview)
		env, next = next, env
	}
	return env.Data[0]
}

// transfer2 is Inner's site step when all four bonds are 2 — nearly every
// site of the d=1 ansatz, where the general step spends its time on matrix
// headers, shape checks and zero-fills rather than on its 32 multiplies. It
// updates the 2×2 environment e in place from the bra site a and ket site b,
// both (2,2,2) row-major. Every entry is summed in ascending contraction
// order, as mulRowsBlock and adjARowsBlock do, so on finite states the result
// is == to the general step's: that one starts each sum from +0 and skips
// zero operands, which can change the sign of an exact zero and nothing else.
func transfer2(e *[4]complex128, a, b *[8]complex128) {
	e00, e01, e10, e11 := e[0], e[1], e[2], e[3]
	// T[i,(s,k)] = Σ_j e[i,j]·b[j,s,k]; rows (i,s), columns k.
	t00 := e00*b[0] + e01*b[4]
	t01 := e00*b[1] + e01*b[5]
	t10 := e00*b[2] + e01*b[6]
	t11 := e00*b[3] + e01*b[7]
	t20 := e10*b[0] + e11*b[4]
	t21 := e10*b[1] + e11*b[5]
	t30 := e10*b[2] + e11*b[6]
	t31 := e10*b[3] + e11*b[7]
	// e'[r,k] = Σ_{(i,s)} conj(a[i,s,r])·T[(i,s),k].
	c00, c01 := complex(real(a[0]), -imag(a[0])), complex(real(a[1]), -imag(a[1]))
	c10, c11 := complex(real(a[2]), -imag(a[2])), complex(real(a[3]), -imag(a[3]))
	c20, c21 := complex(real(a[4]), -imag(a[4])), complex(real(a[5]), -imag(a[5]))
	c30, c31 := complex(real(a[6]), -imag(a[6])), complex(real(a[7]), -imag(a[7]))
	n00 := c00*t00 + c10*t10 + c20*t20 + c30*t30
	n01 := c00*t01 + c10*t11 + c20*t21 + c30*t31
	n10 := c01*t00 + c11*t10 + c21*t20 + c31*t30
	n11 := c01*t01 + c11*t11 + c21*t21 + c31*t31
	e[0], e[1], e[2], e[3] = n00, n01, n10, n11
}

// Overlap returns the kernel entry |⟨a|b⟩|² through the workspace.
func (w *Workspace) Overlap(a, b *MPS) float64 {
	v := cmplx.Abs(w.Inner(a, b))
	return v * v
}
