// Package mps implements the Matrix Product State quantum circuit simulator
// at the heart of the paper (section II-B): site tensors joined by virtual
// bonds, single- and two-qubit gate application (Fig. 1), canonical-form
// maintenance via QR/LQ, SVD truncation with a guaranteed error budget
// (equation (8)), the O(mχ³) zipper inner product (Fig. 2), and byte-accurate
// memory accounting used by the Fig. 6 / Table I experiments.
//
// The simulator maintains a mixed-canonical invariant: all sites left of the
// orthogonality centre are left-canonical and all sites right of it are
// right-canonical. Two-qubit gates first move the centre to the gate
// position, so every SVD truncation is locally optimal and the discarded
// weight Σs²ᵢ is exactly the squared-overlap error of equation (8).
package mps

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/linalg"
	"repro/internal/tensor"
)

// DefaultTruncationBudget is the paper's per-truncation error budget: singular
// values are discarded while the cumulative discarded weight Σs²ᵢ stays below
// this value, which the paper sets at the scale of 64-bit machine epsilon so
// the simulation is "virtually noiseless".
const DefaultTruncationBudget = 1e-16

// Config controls simulator behaviour.
type Config struct {
	// Backend supplies the contraction/decomposition kernels; nil selects
	// the serial (CPU-role) backend.
	Backend backend.Backend
	// TruncationBudget is the maximum discarded weight Σs²ᵢ per SVD
	// truncation. Zero selects DefaultTruncationBudget; set to a negative
	// value to disable truncation entirely.
	TruncationBudget float64
	// MaxBond caps the virtual bond dimension (0 = uncapped). When the cap
	// binds, truncation error may exceed the budget; the excess is recorded.
	MaxBond int
	// Renormalize rescales the state to unit norm after each truncation.
	// The paper leaves states unnormalised (the error is ~1e-16).
	Renormalize bool
	// RecordMemory appends a MemSample after every applied gate, feeding the
	// Fig. 6 memory-evolution experiment.
	RecordMemory bool
	// SkipCanonicalization disables the centre move before each two-qubit
	// gate. The paper (footnote 2) canonicalises before every SVD truncation
	// because that makes the truncation optimal and the error identity
	// (equation (8)) exact; skipping it is provided as an ABLATION ONLY —
	// truncations become suboptimal and the recorded TruncationError is no
	// longer a guaranteed bound.
	SkipCanonicalization bool
	// ReferenceKernels routes gate application through the original generic
	// contraction chain (ContractWith → Transpose → Matricize), the plain
	// one-sided Jacobi SVD and allocating canonicalisation, and disables
	// single-qubit gate fusion in ApplyCircuit. Provided for metamorphic
	// testing and ablation: the fused zero-realloc engine must agree with
	// this path to tight tolerance on state, bond dimensions and truncation
	// error.
	ReferenceKernels bool
}

func (c Config) withDefaults() Config {
	if c.Backend == nil {
		c.Backend = backend.NewSerial()
	}
	if c.TruncationBudget == 0 {
		c.TruncationBudget = DefaultTruncationBudget
	}
	return c
}

// MemSample records simulator state after one gate application.
type MemSample struct {
	GateIndex int     // 0-based index of the gate just applied
	Bytes     int64   // total MPS payload bytes
	MaxBond   int     // largest virtual bond dimension
	TruncErr  float64 // cumulative discarded weight so far
}

// MPS is a matrix product state on N qubits. Site tensor i has shape
// (χ_left, 2, χ_right); the physical bond is always dimension 2 and the edge
// virtual bonds have dimension 1.
type MPS struct {
	N     int
	Sites []*tensor.Tensor

	cfg    Config
	center int // orthogonality centre
	// canonical records whether the mixed-canonical invariant is known to
	// hold around centre; false only after gates applied with
	// SkipCanonicalization.
	canonical bool

	// TruncationError accumulates the discarded weight Σs²ᵢ over all
	// truncations — an upper bound on 1−|⟨ψ_ideal|ψ_trunc⟩|² (equation (8)).
	TruncationError float64
	// Ledger holds per-gate memory samples when Config.RecordMemory is set.
	Ledger []MemSample

	gatesApplied int

	// ws is the gate engine's scratch workspace, created lazily on first
	// gate application or attached by the simulating worker
	// (AttachWorkspace) so warmed buffers carry across states.
	ws *SimWorkspace
}

// NewZeroState returns |0…0⟩ on n qubits: every site is the (1,2,1) tensor
// with amplitude 1 on the |0⟩ physical index. A product state is trivially in
// canonical form with the centre anywhere; we place it at site 0.
func NewZeroState(n int, cfg Config) *MPS {
	if n < 1 {
		panic(fmt.Sprintf("mps: invalid qubit count %d", n))
	}
	m := &MPS{N: n, cfg: cfg.withDefaults(), canonical: true}
	m.Sites = make([]*tensor.Tensor, n)
	for i := 0; i < n; i++ {
		s := tensor.New(1, 2, 1)
		s.Set(1, 0, 0, 0)
		m.Sites[i] = s
	}
	return m
}

// Backend exposes the configured execution backend (for instrumentation).
func (m *MPS) Backend() backend.Backend { return m.cfg.Backend }

// Clone returns a deep copy sharing no storage; the clone keeps the same
// configuration and canonical centre.
func (m *MPS) Clone() *MPS {
	c := &MPS{
		N: m.N, cfg: m.cfg, center: m.center, canonical: m.canonical,
		TruncationError: m.TruncationError,
		gatesApplied:    m.gatesApplied,
	}
	c.Sites = make([]*tensor.Tensor, m.N)
	for i, s := range m.Sites {
		c.Sites[i] = s.Clone()
	}
	c.Ledger = append([]MemSample(nil), m.Ledger...)
	return c
}

// BondDims returns the N−1 virtual bond dimensions between adjacent sites.
func (m *MPS) BondDims() []int {
	d := make([]int, 0, m.N-1)
	for i := 0; i+1 < m.N; i++ {
		d = append(d, m.Sites[i].Shape[2])
	}
	return d
}

// MaxBond returns the largest virtual bond dimension χ — the quantity the
// paper's Table I reports and that controls the O(mχ³) runtime.
func (m *MPS) MaxBond() int {
	mx := 1
	for _, d := range m.BondDims() {
		if d > mx {
			mx = d
		}
	}
	return mx
}

// MemoryBytes returns the total payload size of all site tensors, matching
// the "Memory per MPS (MiB)" column of Table I.
func (m *MPS) MemoryBytes() int64 {
	var b int64
	for _, s := range m.Sites {
		b += s.Bytes()
	}
	return b
}

// ApplyGate applies a validated circuit gate. Two-qubit gates must act on
// adjacent chain positions; long-range circuits must be routed first
// (circuit.Route), mirroring the paper's simulator constraint.
func (m *MPS) ApplyGate(g circuit.Gate) error {
	if err := g.Validate(m.N); err != nil {
		return err
	}
	switch len(g.Qubits) {
	case 1:
		m.apply1(g.Mat, g.Qubits[0])
	case 2:
		a, b := g.Qubits[0], g.Qubits[1]
		d := a - b
		if d != 1 && d != -1 {
			return fmt.Errorf("mps: two-qubit gate %q on non-adjacent qubits %d,%d (route the circuit first)", g.Name, a, b)
		}
		mat := g.Mat
		if d == 1 {
			// Gate lists (high, low); reorder the basis to (low, high) —
			// into the workspace's cached buffer on the engine path, so no
			// fresh matrix is allocated per reversed-order gate.
			if m.engineActive() {
				mat = swapQubitOrderInto(&m.workspace().swap, g.Mat)
			} else {
				mat = swapQubitOrder(g.Mat)
			}
			a, b = b, a
		}
		m.apply2(mat, a)
		_ = b
	}
	m.gatesApplied++
	if m.cfg.RecordMemory {
		m.Ledger = append(m.Ledger, MemSample{
			GateIndex: m.gatesApplied - 1,
			Bytes:     m.MemoryBytes(),
			MaxBond:   m.MaxBond(),
			TruncErr:  m.TruncationError,
		})
	}
	return nil
}

// ApplyCircuit applies every gate of c in order. On the fused engine path
// (the default), runs of single-qubit gates on the same qubit are coalesced
// into one 2×2 product and single-qubit gates adjacent to a two-qubit gate
// are folded into its 4×4 matrix, reducing the number of site updates and
// SVD+canonicalisation events per circuit. Fusion is legal because a
// delayed single-qubit gate commutes with every gate on other qubits; it is
// disabled when per-gate observability is required (RecordMemory's ledger)
// or when ReferenceKernels pins the pre-fusion semantics.
func (m *MPS) ApplyCircuit(c *circuit.Circuit) error {
	if c.NumQubits != m.N {
		return fmt.Errorf("mps: circuit on %d qubits applied to %d-qubit state", c.NumQubits, m.N)
	}
	if m.cfg.RecordMemory || !m.engineActive() {
		for i, g := range c.Gates {
			if err := m.ApplyGate(g); err != nil {
				return fmt.Errorf("mps: gate %d: %w", i, err)
			}
		}
		return nil
	}
	ws := m.workspace()
	ws.ensurePending(m.N)
	for i, g := range c.Gates {
		if err := g.Validate(m.N); err != nil {
			m.flushPending(ws)
			return fmt.Errorf("mps: gate %d: %w", i, err)
		}
		switch len(g.Qubits) {
		case 1:
			q := g.Qubits[0]
			p := ws.pending[4*q : 4*q+4]
			if ws.has[q] {
				var tmp [4]complex128
				mul2x2(tmp[:], g.Mat.Data, p)
				copy(p, tmp[:])
			} else {
				copy(p, g.Mat.Data)
				ws.has[q] = true
			}
		case 2:
			a, b := g.Qubits[0], g.Qubits[1]
			if d := a - b; d != 1 && d != -1 {
				m.flushPending(ws)
				return fmt.Errorf("mps: gate %d: two-qubit gate %q on non-adjacent qubits %d,%d (route the circuit first)", i, g.Name, a, b)
			}
			mat := g.Mat
			if ws.has[a] || ws.has[b] {
				var pa, pb []complex128
				if ws.has[a] {
					pa = ws.pending[4*a : 4*a+4]
				}
				if ws.has[b] {
					pb = ws.pending[4*b : 4*b+4]
				}
				mat = foldInto(&ws.fold, mat, pa, pb)
				ws.has[a], ws.has[b] = false, false
			}
			if a > b {
				mat = swapQubitOrderInto(&ws.swap, mat)
				a = b
			}
			m.apply2(mat, a)
		}
		m.gatesApplied++
	}
	m.flushPending(ws)
	return nil
}

// flushPending applies every accumulated single-qubit gate (they were
// already counted when encountered).
func (m *MPS) flushPending(ws *SimWorkspace) {
	for q := 0; q < m.N && q < len(ws.has); q++ {
		if ws.has[q] {
			apply1InPlace(m.Sites[q], ws.pending[4*q:4*q+4])
			ws.has[q] = false
		}
	}
}

// engineActive reports whether the fused zero-realloc engine handles this
// state's gates; ReferenceKernels pins the reference path.
func (m *MPS) engineActive() bool {
	return !m.cfg.ReferenceKernels
}

// apply1 contracts a single-qubit gate with the site tensor (Fig. 1a). A
// unitary acting on the physical bond preserves canonical form, so the
// centre is untouched. The engine path mixes the two physical slabs of the
// site buffer in place; the reference path keeps the original generic
// contraction.
func (m *MPS) apply1(g *linalg.Matrix, q int) {
	if m.engineActive() {
		apply1InPlace(m.Sites[q], g.Data)
		return
	}
	site := m.Sites[q] // (l, 2, r)
	gt := tensor.FromData(g.Data, 2, 2)
	// out[l, r, s_out] = Σ_s site[l, s, r] · g[s_out, s]
	out := tensor.ContractWith(site, gt, []int{1}, []int{1}, m.cfg.Backend.MatMul)
	m.Sites[q] = out.Transpose(0, 2, 1)
}

// apply2 applies a two-qubit gate on sites (q, q+1) with the matrix in
// (low, high) basis order (Fig. 1b): move the centre to q, merge the two
// sites, contract with the gate, SVD, truncate against the budget, and split
// back, leaving the centre at q+1. The engine path (apply2Engine) fuses the
// merge/gate/matricize chain and reuses workspace and site buffers; this
// reference path materialises every intermediate.
func (m *MPS) apply2(g *linalg.Matrix, q int) {
	if m.engineActive() {
		m.apply2Engine(g, q)
		return
	}
	if m.cfg.SkipCanonicalization {
		m.canonical = false
	} else {
		m.moveCenterTo(q)
	}

	a, b := m.Sites[q], m.Sites[q+1]                                              // (l,2,k) and (k,2,r)
	merged := tensor.ContractWith(a, b, []int{2}, []int{0}, m.cfg.Backend.MatMul) // (l, s_q, s_q1, r)
	gt := tensor.FromData(g.Data, 2, 2, 2, 2)                                     // (o_q, o_q1, i_q, i_q1)
	// out[l, r, o_q, o_q1] = Σ merged[l, i_q, i_q1, r] · gt[o_q, o_q1, i_q, i_q1]
	out := tensor.ContractWith(merged, gt, []int{1, 2}, []int{2, 3}, m.cfg.Backend.MatMul)
	theta := out.Transpose(0, 2, 3, 1) // (l, o_q, o_q1, r)

	l := theta.Shape[0]
	r := theta.Shape[3]
	mat := theta.Matricize(0, 1) // (l·2, 2·r)
	res := linalg.SVD(mat)

	keep, discarded := m.truncationCut(res.S)
	tr, _ := res.Truncate(keep)
	m.TruncationError += discarded

	norm2 := 0.0
	for _, s := range tr.S {
		norm2 += s * s
	}
	scale := complex(1, 0)
	if m.cfg.Renormalize && norm2 > 0 {
		scale = complex(1/math.Sqrt(norm2), 0)
	}

	// Left site ← U (left-canonical); right site ← diag(S)·V† (the centre).
	m.Sites[q] = tensor.FromData(tr.U.Data, l, 2, keep)
	sv := tr.V.ConjTranspose() // (keep, 2·r)
	for i := 0; i < keep; i++ {
		f := complex(tr.S[i], 0) * scale
		row := sv.Row(i)
		for j := range row {
			row[j] *= f
		}
	}
	m.Sites[q+1] = tensor.FromData(sv.Data, keep, 2, r)
	if m.canonical {
		m.center = q + 1
	}
}

// truncationCut chooses how many singular values to keep: the largest count
// whose discarded tail weight stays within the budget, further capped by
// MaxBond. Returns the kept count and the discarded weight.
func (m *MPS) truncationCut(s []float64) (int, float64) {
	keep := len(s)
	var discarded float64
	if m.cfg.TruncationBudget >= 0 {
		budget := m.cfg.TruncationBudget
		for keep > 1 {
			tail := s[keep-1] * s[keep-1]
			if discarded+tail > budget {
				break
			}
			discarded += tail
			keep--
		}
	}
	if m.cfg.MaxBond > 0 && keep > m.cfg.MaxBond {
		for i := m.cfg.MaxBond; i < keep; i++ {
			discarded += s[i] * s[i]
		}
		keep = m.cfg.MaxBond
	}
	if keep < 1 && len(s) > 0 {
		keep = 1
	}
	return keep, discarded
}

// moveCenterTo shifts the orthogonality centre to site q using QR (moving
// right) and LQ (moving left) — the canonicalisation step the paper applies
// before each SVD truncation. The engine path holds the Householder factors
// in the workspace and rewrites site buffers in place; the reference path
// builds fresh tensors per step.
func (m *MPS) moveCenterTo(q int) {
	if m.engineActive() {
		m.moveCenterToEngine(q)
		return
	}
	for m.center < q {
		i := m.center
		site := m.Sites[i] // (l,2,r)
		qt, rt := tensor.QRDecompose(site, []int{0, 1})
		m.Sites[i] = qt // (l,2,k) left-canonical
		// Absorb R into the next site: next'[k,2,r'] = Σ R[k,j]·next[j,2,r'].
		m.Sites[i+1] = tensor.ContractWith(rt, m.Sites[i+1], []int{1}, []int{0}, m.cfg.Backend.MatMul)
		m.center++
	}
	for m.center > q {
		i := m.center
		site := m.Sites[i] // (l,2,r)
		lt, qt := tensor.LQDecompose(site, []int{0})
		m.Sites[i] = qt // (k,2,r) right-canonical
		prev := m.Sites[i-1]
		m.Sites[i-1] = tensor.ContractWith(prev, lt, []int{2}, []int{0}, m.cfg.Backend.MatMul)
		m.center--
	}
}

// swapQubitOrder reorders a 4×4 two-qubit matrix from basis |ab⟩ to |ba⟩
// into a fresh matrix (the engine path reuses a workspace buffer through
// swapQubitOrderInto, the single source of the permutation).
func swapQubitOrder(g *linalg.Matrix) *linalg.Matrix {
	return swapQubitOrderInto(linalg.NewMatrix(4, 4), g)
}

// Norm returns ‖ψ‖; 1 for unitary circuits up to truncation error.
func (m *MPS) Norm() float64 {
	ip := Inner(m, m)
	return math.Sqrt(math.Abs(real(ip)))
}

// Amplitude returns ⟨bits|ψ⟩ for a computational basis state given as a
// per-qubit bit slice; used to cross-check against the statevector oracle.
func (m *MPS) Amplitude(bits []int) complex128 {
	if len(bits) != m.N {
		panic("mps: Amplitude needs one bit per qubit")
	}
	// Row vector propagated through the chain, selecting the physical index.
	vec := linalg.NewMatrix(1, 1)
	vec.Set(0, 0, 1)
	for i, b := range bits {
		if b != 0 && b != 1 {
			panic("mps: bits must be 0/1")
		}
		site := m.Sites[i] // (l,2,r)
		l, r := site.Shape[0], site.Shape[2]
		slice := linalg.NewMatrix(l, r)
		for a := 0; a < l; a++ {
			for c := 0; c < r; c++ {
				slice.Set(a, c, site.At(a, b, c))
			}
		}
		vec = linalg.MatMul(vec, slice)
	}
	return vec.At(0, 0)
}

// ToStateVector reconstructs the dense 2^N amplitude vector (small N only);
// the paper notes this pairwise contraction yields the full state.
func (m *MPS) ToStateVector() []complex128 {
	if m.N > 20 {
		panic("mps: ToStateVector is for small qubit counts only")
	}
	amps := make([]complex128, 1<<uint(m.N))
	bits := make([]int, m.N)
	for idx := range amps {
		for q := 0; q < m.N; q++ {
			bits[q] = (idx >> uint(m.N-1-q)) & 1
		}
		amps[idx] = m.Amplitude(bits)
	}
	return amps
}

// GatesApplied returns how many gates have been applied so far.
func (m *MPS) GatesApplied() int { return m.gatesApplied }

// CheckCanonical verifies the mixed-canonical invariant within tol: sites
// left of the centre are left-canonical isometries, sites right of it are
// right-canonical. Returns an error describing the first violation.
func (m *MPS) CheckCanonical(tol float64) error {
	for i := 0; i < m.center; i++ {
		mm := m.Sites[i].Matricize(0, 1) // (l·2, r)
		if !mm.IsUnitary(tol) {
			return fmt.Errorf("mps: site %d left of centre %d is not left-canonical", i, m.center)
		}
	}
	for i := m.center + 1; i < m.N; i++ {
		mm := m.Sites[i].Matricize(0) // (l, 2·r) — rows orthonormal
		if !mm.ConjTranspose().IsUnitary(tol) {
			return fmt.Errorf("mps: site %d right of centre %d is not right-canonical", i, m.center)
		}
	}
	return nil
}

// Inner computes ⟨a|b⟩ with the zipper contraction of Fig. 2: conjugate a's
// tensors, connect the physical bonds, and sweep left to right carrying the
// (χ_a × χ_b) environment. Cost O(N·χ³).
func Inner(a, b *MPS) complex128 {
	return InnerWith(a, b, a.cfg.Backend)
}

// InnerWith is Inner with an explicit backend, so the inner-product benchmark
// can compare serial vs parallel execution on identical states.
func InnerWith(a, b *MPS, be backend.Backend) complex128 {
	if a.N != b.N {
		panic(fmt.Sprintf("mps: Inner on states of %d and %d qubits", a.N, b.N))
	}
	// env[i][j] carries ⟨a-prefix|b-prefix⟩ with open bra bond i, ket bond j.
	env := linalg.NewMatrix(1, 1)
	env.Set(0, 0, 1)
	for site := 0; site < a.N; site++ {
		as := a.Sites[site] // (la,2,ra)
		bs := b.Sites[site] // (lb,2,rb)
		la, ra := as.Shape[0], as.Shape[2]
		lb, rb := bs.Shape[0], bs.Shape[2]
		// T[i, s, rb] = Σ_j env[i,j]·bs[j,s,rb]
		bmat := linalg.FromSlice(lb, 2*rb, bs.Data)
		tm := be.MatMul(env, bmat) // (la, 2·rb)
		// env'[ra, rb] = Σ_{i,s} conj(as[i,s,ra]) · T[i,s,rb]
		amat := linalg.FromSlice(la*2, ra, as.Data)
		aH := amat.ConjTranspose() // (ra, la·2)
		tmat := linalg.FromSlice(la*2, rb, tm.Data)
		env = be.MatMul(aH, tmat)
	}
	return env.At(0, 0)
}

// Overlap returns the kernel entry |⟨a|b⟩|² (equation (1) of the paper).
func Overlap(a, b *MPS) float64 {
	v := cmplx.Abs(Inner(a, b))
	return v * v
}
