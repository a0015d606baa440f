package mps

import (
	"math"

	"repro/internal/linalg"
	"repro/internal/tensor"
)

// SimWorkspace owns every scratch buffer of the zero-realloc gate engine:
// the merged two-site theta block (held directly in its matricized layout),
// the QR/LQ Householder storage and SVD column/Gram buffers (via the
// embedded linalg.Workspace), the canonicalisation absorb product, the
// cached qubit-order-swapped gate matrix, and the pending single-qubit gate
// accumulators used by ApplyCircuit's gate fusion.
//
// All buffers are grow-only: once warmed to the largest bond dimension a
// circuit reaches, steady-state gate application performs zero heap
// allocations. A SimWorkspace is NOT safe for concurrent use — give each
// simulating goroutine its own and thread it across the states that
// goroutine materialises (kernel.States and the dist strategies do exactly
// that). A workspace may be reused across many MPS values sequentially; it
// holds no per-state data between gate applications.
type SimWorkspace struct {
	la     linalg.Workspace
	theta  linalg.Matrix // merged theta in matricized (2l × 2r) layout
	absorb linalg.Matrix // R·next / prev·L canonicalisation product
	swap   linalg.Matrix // cached swapQubitOrder output (4×4, grow-once)
	fold   linalg.Matrix // fused 1q⊗1q ∘ 2q gate matrix (4×4, grow-once)

	// Header-only matrix views of site tensors (no backing storage).
	aview, bview linalg.Matrix

	// ApplyCircuit gate-fusion state: pending[4q:4q+4] is the accumulated
	// single-qubit unitary awaiting application on qubit q, valid when
	// has[q] is set.
	pending []complex128
	has     []bool
}

// NewSimWorkspace returns an empty workspace; buffers grow lazily to the
// largest shapes encountered.
func NewSimWorkspace() *SimWorkspace { return &SimWorkspace{} }

// identity2 is the flat 2×2 identity used for absent pending gate factors.
var identity2 = [4]complex128{1, 0, 0, 1}

// ensurePending sizes the gate-fusion accumulators for an n-qubit circuit
// and clears all pending flags.
func (w *SimWorkspace) ensurePending(n int) {
	if cap(w.pending) < 4*n {
		w.pending = make([]complex128, 4*n)
		w.has = make([]bool, n)
	}
	w.pending = w.pending[:4*n]
	w.has = w.has[:n]
	for i := range w.has {
		w.has[i] = false
	}
}

// AttachWorkspace makes the state use ws for all subsequent gate
// applications, sharing warmed buffers across the many states one worker
// goroutine materialises. A nil ws is ignored (the state keeps creating its
// own lazily). The workspace must not be used by another goroutine while
// attached and in use.
func (m *MPS) AttachWorkspace(ws *SimWorkspace) {
	if ws != nil {
		m.ws = ws
	}
}

// DetachWorkspace releases the state's workspace reference so the buffers
// can be handed to the next simulation (and so a state parked in a shared
// cache holds no scratch memory alive).
func (m *MPS) DetachWorkspace() { m.ws = nil }

// CompactSites trims every site tensor's grow-only backing array to its
// exact payload size. The engine lets site buffers retain the peak bond
// dimension's capacity so steady-state gates allocate nothing; a finished
// state that is about to be retained — cached, shared, serialised — should
// be compacted once so the byte-budgeted state cache's MemoryBytes
// accounting (which charges the payload length) matches the heap it
// actually holds alive.
func (m *MPS) CompactSites() {
	for _, s := range m.Sites {
		if cap(s.Data) > len(s.Data) {
			d := make([]complex128, len(s.Data))
			copy(d, s.Data)
			s.Data = d
		}
	}
}

// workspace returns the state's engine workspace, creating one lazily.
func (m *MPS) workspace() *SimWorkspace {
	if m.ws == nil {
		m.ws = NewSimWorkspace()
	}
	return m.ws
}

// viewMatrix points a header-only workspace view at raw tensor storage.
func viewMatrix(v *linalg.Matrix, rows, cols int, data []complex128) *linalg.Matrix {
	v.Rows, v.Cols, v.Data = rows, cols, data
	return v
}

// apply1InPlace contracts a single-qubit gate with the site tensor by mixing
// the two physical-index slabs in place — the fused form of the
// ContractWith → Transpose chain, touching no heap.
func apply1InPlace(site *tensor.Tensor, g []complex128) {
	l, r := site.Shape[0], site.Shape[2]
	g00, g01, g10, g11 := g[0], g[1], g[2], g[3]
	d := site.Data
	for a := 0; a < l; a++ {
		row := d[a*2*r : (a+1)*2*r]
		s1 := row[r:]
		for c := 0; c < r; c++ {
			t0, t1 := row[c], s1[c]
			row[c] = g00*t0 + g01*t1
			s1[c] = g10*t0 + g11*t1
		}
	}
}

// fuseGate2 applies a two-qubit gate (matrix in (low, high) basis order) to
// the merged theta block in place. theta holds the matricized
// ((l, s_q) × (s_q1, r)) layout produced by the site⊗site matmul, which is
// exactly the layout the SVD consumes — so the whole generic
// ContractWith → Transpose → Matricize chain collapses into this one pass.
func fuseGate2(theta []complex128, g []complex128, l, r int) {
	w := 2 * r
	for a := 0; a < l; a++ {
		r0 := theta[(2*a)*w : (2*a+1)*w] // s_q = 0 rows: [s_q1·r + c]
		r1 := theta[(2*a+1)*w : (2*a+2)*w]
		for c := 0; c < r; c++ {
			m00, m01 := r0[c], r0[r+c]
			m10, m11 := r1[c], r1[r+c]
			r0[c] = g[0]*m00 + g[1]*m01 + g[2]*m10 + g[3]*m11
			r0[r+c] = g[4]*m00 + g[5]*m01 + g[6]*m10 + g[7]*m11
			r1[c] = g[8]*m00 + g[9]*m01 + g[10]*m10 + g[11]*m11
			r1[r+c] = g[12]*m00 + g[13]*m01 + g[14]*m10 + g[15]*m11
		}
	}
}

// apply2Engine is the zero-realloc two-qubit gate path: merge the two site
// tensors directly into the matricized theta layout, fuse the gate in one
// pass, run the workspace-backed truncation SVD, and write the truncated
// factors straight into the sites' grow-only buffers — U reshaped into site
// q, and diag(S)·V† absorbed in place into site q+1 (no ConjTranspose copy,
// no intermediate Truncate).
func (m *MPS) apply2Engine(g *linalg.Matrix, q int) {
	ws := m.workspace()
	if m.cfg.SkipCanonicalization {
		m.canonical = false
	} else {
		m.moveCenterTo(q)
	}
	a, b := m.Sites[q], m.Sites[q+1] // (l,2,k) and (k,2,r)
	l, k, r := a.Shape[0], a.Shape[2], b.Shape[2]

	// theta[(l, s_q), (s_q1, r)] = Σ_k a[l, s_q, k] · b[k, s_q1, r]
	av := viewMatrix(&ws.aview, 2*l, k, a.Data)
	bv := viewMatrix(&ws.bview, k, 2*r, b.Data)
	m.cfg.Backend.MatMulInto(&ws.theta, av, bv)
	fuseGate2(ws.theta.Data, g.Data, l, r)

	// Two-phase truncation SVD: the cut is decided on the full spectrum,
	// then Factors materialises (and re-orthonormalises) only the kept
	// columns — the QR that dominates the decomposition runs on an m×keep
	// panel instead of m×n.
	ts := m.cfg.Backend.SVDTruncLazy(&ws.la, &ws.theta)
	keep, discarded := m.truncationCut(ts.S)
	m.TruncationError += discarded
	um, vm := ts.Factors(keep)

	norm2 := 0.0
	for i := 0; i < keep; i++ {
		norm2 += ts.S[i] * ts.S[i]
	}
	scale := complex(1, 0)
	if m.cfg.Renormalize && norm2 > 0 {
		scale = complex(1/math.Sqrt(norm2), 0)
	}

	// Left site ← U[:, :keep] (left-canonical).
	us, vs := um.Cols, vm.Cols
	a.Reuse3(l, 2, keep)
	for i := 0; i < 2*l; i++ {
		copy(a.Data[i*keep:(i+1)*keep], um.Data[i*us:i*us+keep])
	}
	// Right site ← diag(S)·V† (the centre), absorbed in place.
	b.Reuse3(keep, 2, r)
	for i := 0; i < keep; i++ {
		f := complex(ts.S[i], 0) * scale
		row := b.Data[i*2*r : (i+1)*2*r]
		for j := 0; j < 2*r; j++ {
			v := vm.Data[j*vs+i]
			row[j] = complex(real(v), -imag(v)) * f
		}
	}
	if m.canonical {
		m.center = q + 1
	}
}

// moveCenterToEngine shifts the orthogonality centre with workspace-backed
// QR/LQ: the Householder factors live in the workspace and the updated site
// tensors are written back into their own grow-only buffers, so a warm sweep
// allocates nothing.
func (m *MPS) moveCenterToEngine(q int) {
	ws := m.workspace()
	for m.center < q {
		i := m.center
		site := m.Sites[i] // (l,2,r)
		l, r := site.Shape[0], site.Shape[2]
		av := viewMatrix(&ws.aview, 2*l, r, site.Data)
		qm, rm := linalg.QRInto(&ws.la, av, 1)
		kk := qm.Cols
		next := m.Sites[i+1] // (r,2,r2)
		r2 := next.Shape[2]
		bv := viewMatrix(&ws.bview, r, 2*r2, next.Data)
		m.cfg.Backend.MatMulInto(&ws.absorb, rm, bv) // (kk × 2·r2)
		site.Reuse3(l, 2, kk)
		copy(site.Data, qm.Data)
		next.Reuse3(kk, 2, r2)
		copy(next.Data, ws.absorb.Data)
		m.center++
	}
	for m.center > q {
		i := m.center
		site := m.Sites[i] // (l,2,r)
		l, r := site.Shape[0], site.Shape[2]
		av := viewMatrix(&ws.aview, l, 2*r, site.Data)
		lm, qm := linalg.LQInto(&ws.la, av, 1)
		kk := lm.Cols
		prev := m.Sites[i-1] // (l0,2,l)
		l0 := prev.Shape[0]
		bv := viewMatrix(&ws.bview, 2*l0, l, prev.Data)
		m.cfg.Backend.MatMulInto(&ws.absorb, bv, lm) // (2·l0 × kk)
		site.Reuse3(kk, 2, r)
		copy(site.Data, qm.Data)
		prev.Reuse3(l0, 2, kk)
		copy(prev.Data, ws.absorb.Data)
		m.center--
	}
}

// swapQubitOrderInto writes the |ab⟩→|ba⟩ basis reordering of a 4×4 gate
// matrix into the workspace's cached buffer, replacing the fresh
// linalg.Matrix the allocating path builds per reversed-order gate.
func swapQubitOrderInto(dst *linalg.Matrix, g *linalg.Matrix) *linalg.Matrix {
	dst.Reuse(4, 4)
	perm := [4]int{0, 2, 1, 3}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			dst.Data[perm[i]*4+perm[j]] = g.Data[i*4+j]
		}
	}
	return dst
}

// mul2x2 computes c = a·b for flat row-major 2×2 blocks; c must not alias
// a or b.
func mul2x2(c, a, b []complex128) {
	c[0] = a[0]*b[0] + a[1]*b[2]
	c[1] = a[0]*b[1] + a[1]*b[3]
	c[2] = a[2]*b[0] + a[3]*b[2]
	c[3] = a[2]*b[1] + a[3]*b[3]
}

// foldInto writes mat · (pa ⊗ pb) into the workspace fold buffer: the
// two-qubit gate with the pending single-qubit gates on its inputs folded
// in, pa acting on the first-listed (more significant) qubit. nil pending
// factors mean identity.
func foldInto(dst *linalg.Matrix, mat *linalg.Matrix, pa, pb []complex128) *linalg.Matrix {
	dst.Reuse(4, 4)
	if pa == nil {
		pa = identity2[:]
	}
	if pb == nil {
		pb = identity2[:]
	}
	// kron[(ka kb), (ja jb)] = pa[ka,ja]·pb[kb,jb]; dst = mat·kron.
	for i := 0; i < 4; i++ {
		mrow := mat.Data[i*4 : (i+1)*4]
		drow := dst.Data[i*4 : (i+1)*4]
		for ja := 0; ja < 2; ja++ {
			for jb := 0; jb < 2; jb++ {
				var acc complex128
				for ka := 0; ka < 2; ka++ {
					for kb := 0; kb < 2; kb++ {
						acc += mrow[ka*2+kb] * pa[ka*2+ja] * pb[kb*2+jb]
					}
				}
				drow[ja*2+jb] = acc
			}
		}
	}
	return dst
}
