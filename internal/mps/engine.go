package mps

import (
	"sync"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/linalg"
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
//
// It is also a simulating worker's whole per-row kit (Simulate): the circuit
// each row is bound into and the scratch state the engine runs on, so a warm
// worker materialises a row in the five allocations of its finished slab.
type SimWorkspace struct {
	la     linalg.Workspace
	theta  linalg.Matrix // merged theta in matricized (2l × 2r) layout
	absorb linalg.Matrix // R·next / prev·L canonicalisation product
	swap   linalg.Matrix // (high, low) gate reordered to (low, high) (4×4, grow-once)
	fold   linalg.Matrix // fused 1q⊗1q ∘ 2q gate matrix (4×4, grow-once)

	// Header-only matrix views of site tensors (no backing storage).
	aview, bview linalg.Matrix

	// ApplyCircuit gate-fusion state: pending[4q:4q+4] is the accumulated
	// single-qubit unitary awaiting application on qubit q, valid when
	// has[q] is set.
	pending []complex128
	has     []bool

	// Simulate's per-worker state: the circuit a row is bound into, the
	// scratch state reset to |0…0⟩ per row, and the serial backend that
	// stands in for a nil Config.Backend (made once, not once per row).
	circ    circuit.Circuit
	scratch *MPS
	serial  backend.Backend
}

// NewSimWorkspace returns an empty workspace; buffers grow lazily to the
// largest shapes encountered.
func NewSimWorkspace() *SimWorkspace { return &SimWorkspace{} }

// idleSim is the process-wide set of idle gate-engine workspaces.
var idleSim = sync.Pool{New: func() any { return NewSimWorkspace() }}

// AcquireSimWorkspace returns an idle workspace from a process-wide set —
// warmed by an earlier caller's rows when one is idle, new otherwise — so
// short calls (one served batch, one ring step) start from grown buffers.
// Give it back with Release.
func AcquireSimWorkspace() *SimWorkspace { return idleSim.Get().(*SimWorkspace) }

// Release returns w to the idle set; the caller must not use it afterwards.
// The states it produced are unaffected: they share no storage with it.
func (w *SimWorkspace) Release() { idleSim.Put(w) }

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

// Circuit returns the workspace's reusable circuit: the target a simulating
// worker binds each row into (circuit.Program.Bind) before Simulate.
func (w *SimWorkspace) Circuit() *circuit.Circuit { return &w.circ }

// Simulate applies c to |0…0⟩ and returns the finished state — the state
// NewZeroState + ApplyCircuit + CompactSites gives, tensor for tensor ==.
// The engine runs on the workspace's scratch state, whose sites keep their
// grow-only buffers from row to row; only the finished state is copied out,
// as one slab (see CompactSites) carrying the centre, the truncation error,
// the gate count and the memory ledger. A nil cfg.Backend selects one serial
// backend kept by the workspace. Not safe for concurrent use, like the
// workspace itself.
func (w *SimWorkspace) Simulate(c *circuit.Circuit, cfg Config) (*MPS, error) {
	if cfg.Backend == nil {
		if w.serial == nil {
			w.serial = backend.NewSerial()
		}
		cfg.Backend = w.serial
	}
	st := w.scratch
	if st == nil || st.N != c.NumQubits {
		st = NewZeroState(c.NumQubits, cfg)
		w.scratch = st
	} else {
		st.reset(cfg)
	}
	st.ws = w
	err := st.ApplyCircuit(c)
	st.ws = nil
	if err != nil {
		return nil, err
	}
	out := &MPS{
		N: st.N, cfg: st.cfg, center: st.center,
		TruncationError: st.TruncationError,
		Ledger:          st.Ledger,
		gatesApplied:    st.gatesApplied,
	}
	out.Sites = make([]*Tensor, st.N)
	copyToSlab(out.Sites, st.Sites)
	st.Ledger = nil // moved to out
	return out, nil
}

// reset returns m to |0…0⟩ under cfg, as NewZeroState builds it, keeping
// every site's backing array for the next simulation.
func (m *MPS) reset(cfg Config) {
	m.cfg = cfg.withDefaults()
	for _, s := range m.Sites {
		s.Reuse3(1, 2, 1)
		s.Data[0], s.Data[1] = 1, 0
	}
	m.center, m.TruncationError, m.Ledger, m.gatesApplied = 0, 0, nil, 0
}

// CompactSites moves every site tensor into one slab — the layout
// UnmarshalBinary and Simulate produce: one complex128 array holding every
// payload, one block of tensor headers and one of shapes, each site's slices
// capacity-clipped to its payload. The engine lets site buffers retain the
// peak bond dimension's capacity so steady-state gates allocate nothing; a
// finished state that is about to be retained — cached, shared, serialised
// — should be compacted once, so the byte-budgeted state cache's
// MemoryBytes accounting (which charges the payload length) matches the heap
// it actually holds alive, and so its sites are three heap objects in all
// rather than three each. A gate applied later to a compacted state
// reallocates the site it grows instead of writing into its neighbour.
func (m *MPS) CompactSites() { copyToSlab(m.Sites, m.Sites) }

// copyToSlab sets dst[i] to a copy of src[i], every copy carved out of one
// fresh slab (dst may be src).
func copyToSlab(dst, src []*Tensor) {
	entries := 0
	for _, t := range src {
		entries += len(t.Data)
	}
	sl := newSlab(len(src), entries)
	for i, t := range src {
		s := sl.site(i, t.Shape[0], t.Shape[2])
		copy(s.Data, t.Data)
		dst[i] = s
	}
}

// slab carves n rank-3 site tensors out of three blocks: tensor headers,
// shapes and one complex128 payload. Each site's Shape and Data are
// capacity-clipped windows, so growing one site (Reuse3) reallocates it
// rather than overwriting its neighbour.
type slab struct {
	hdr    []Tensor
	shapes []int
	data   []complex128
}

func newSlab(n, entries int) slab {
	return slab{hdr: make([]Tensor, n), shapes: make([]int, 3*n), data: make([]complex128, entries)}
}

// site carves site i, of bonds (l, r), from the front of the remaining
// payload.
func (s *slab) site(i, l, r int) *Tensor {
	size := 2 * l * r
	d := s.data[:size:size]
	s.data = s.data[size:]
	shape := s.shapes[3*i : 3*i+3 : 3*i+3]
	shape[0], shape[1], shape[2] = l, 2, r
	s.hdr[i] = Tensor{Shape: shape, Data: d}
	return &s.hdr[i]
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
func apply1InPlace(site *Tensor, g []complex128) {
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

// apply2 applies a two-qubit gate listed on adjacent qubits (qa, qb) — the
// one two-qubit dispatch of ApplyGate and ApplyCircuit (Fig. 1b). A gate
// listed (high, low) is first reordered into the (low, high) basis in the
// workspace's cached buffer. Then, on sites (q, q+1): move the centre to q,
// merge the two site tensors directly into the matricized theta layout, fuse
// the gate in one pass, run the workspace-backed truncation SVD, and write
// the truncated factors straight into the sites' grow-only buffers — U
// reshaped into site q, and diag(S)·V† absorbed in place into site q+1 (no
// ConjTranspose copy, no intermediate Truncate), leaving the centre at q+1.
func (m *MPS) apply2(g *linalg.Matrix, qa, qb int) {
	ws := m.workspace()
	q := qa
	if qa > qb {
		g = swapQubitOrderInto(&ws.swap, g)
		q = qb
	}
	m.moveCenterTo(q)
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

	// Left site ← U[:, :keep] (left-canonical).
	us, vs := um.Cols, vm.Cols
	a.Reuse3(l, 2, keep)
	for i := 0; i < 2*l; i++ {
		copy(a.Data[i*keep:(i+1)*keep], um.Data[i*us:i*us+keep])
	}
	// Right site ← diag(S)·V† (the centre), absorbed in place.
	b.Reuse3(keep, 2, r)
	for i := 0; i < keep; i++ {
		f := complex(ts.S[i], 0)
		row := b.Data[i*2*r : (i+1)*2*r]
		for j := 0; j < 2*r; j++ {
			v := vm.Data[j*vs+i]
			row[j] = complex(real(v), -imag(v)) * f
		}
	}
	m.center = q + 1
}

// moveCenterTo shifts the orthogonality centre to site q using QR (moving
// right) and LQ (moving left) — the canonicalisation step the paper applies
// before each SVD truncation. The Householder factors live in the workspace
// and the updated site tensors are written back into their own grow-only
// buffers, so a warm sweep allocates nothing.
func (m *MPS) moveCenterTo(q int) {
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
// matrix into dst (the workspace's cached buffer), so a reversed-order gate
// allocates nothing.
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
