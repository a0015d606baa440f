// Package mps implements the Matrix Product State quantum circuit simulator
// at the heart of the paper (section II-B): site tensors joined by virtual
// bonds, single- and two-qubit gate application (Fig. 1), canonical-form
// maintenance via QR/LQ, SVD truncation with a guaranteed error budget
// (equation (8)), the O(mχ³) zipper inner product (Fig. 2), and byte-accurate
// memory accounting used by the Fig. 6 / Table I experiments.
//
// The simulator maintains a mixed-canonical invariant: all sites left of the
// orthogonality centre are left-canonical and all sites right of it are
// right-canonical. Every two-qubit gate is one algorithm (footnote 2 of the
// paper): move the centre to the gate position, contract, then SVD-truncate
// within the budget — so every truncation is locally optimal and the
// discarded weight Σs²ᵢ is exactly the squared-overlap error of equation
// (8). There is one gate path, the fused zero-realloc engine (engine.go).
// The package tests keep the generic contract → transpose → matricize →
// Jacobi-SVD chain the engine was derived from as an oracle, and check both
// against the dense state vector of internal/statevector.
package mps

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/linalg"
)

// DefaultTruncationBudget is the paper's per-truncation error budget: singular
// values are discarded while the cumulative discarded weight Σs²ᵢ stays below
// this value, which the paper sets at the scale of 64-bit machine epsilon so
// the simulation is "virtually noiseless". That holds for fidelity, not for
// kernel entries: the state error ‖δ‖ is first order in √ε (≈ 1e-8 here), and
// so is an entry's, which differed from the exact statevector Gram by up to
// 7.3e-10 on 12 rows × 6 qubits (9.5e-13 with truncation off). A Gram-level
// oracle tighter than ~1e-8 must turn truncation off or allow for that term.
const DefaultTruncationBudget = 1e-16

// Config controls simulator behaviour.
type Config struct {
	// Backend supplies the contraction/decomposition kernels and times
	// them; nil calls linalg's serial kernels directly, untimed, with the
	// same arithmetic as the serial backend.
	Backend backend.Backend
	// TruncationBudget is the maximum discarded weight Σs²ᵢ per SVD
	// truncation. Zero selects DefaultTruncationBudget; set to a negative
	// value to disable truncation entirely.
	TruncationBudget float64
	// MaxBond caps the virtual bond dimension (0 = uncapped). When the cap
	// binds, truncation error may exceed the budget; the excess is recorded.
	// States are never renormalised: the paper leaves them unnormalised, and
	// the norm deficit is the recorded TruncationError.
	MaxBond int
	// RecordMemory appends a MemSample after every applied gate, feeding the
	// Fig. 6 memory-evolution experiment; ApplyCircuit then applies gates
	// one at a time, without single-qubit gate fusion.
	RecordMemory bool
}

func (c Config) withDefaults() Config {
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
	Sites []*Tensor

	cfg    Config
	center int // orthogonality centre

	// TruncationError accumulates the discarded weight Σεₖ over all K
	// truncations. Each εₖ is that step's squared-overlap error (equation
	// (8)); over the circuit the errors add in amplitude, so the bound is
	// ‖ψ_ideal − ψ_trunc‖² ≤ K·Σεₖ, not 1 − fidelity ≤ Σεₖ.
	TruncationError float64
	// Ledger holds per-gate memory samples when Config.RecordMemory is set.
	Ledger []MemSample

	gatesApplied int

	// ws is the gate engine's scratch workspace: the simulating worker's
	// during SimWorkspace.Simulate, so warmed buffers carry across states,
	// and otherwise created lazily on first gate application.
	ws *SimWorkspace
}

// NewZeroState returns |0…0⟩ on n qubits: every site is the (1,2,1) tensor
// with amplitude 1 on the |0⟩ physical index. A product state is trivially in
// canonical form with the centre anywhere; we place it at site 0.
func NewZeroState(n int, cfg Config) *MPS {
	if n < 1 {
		panic(fmt.Sprintf("mps: invalid qubit count %d", n))
	}
	m := &MPS{N: n, cfg: cfg.withDefaults()}
	m.Sites = make([]*Tensor, n)
	for i := 0; i < n; i++ {
		s := NewTensor(1, 2, 1)
		s.Set(1, 0, 0, 0)
		m.Sites[i] = s
	}
	return m
}

// Clone returns a deep copy sharing no storage; the clone keeps the same
// configuration and canonical centre.
func (m *MPS) Clone() *MPS {
	c := &MPS{
		N: m.N, cfg: m.cfg, center: m.center,
		TruncationError: m.TruncationError,
		gatesApplied:    m.gatesApplied,
	}
	c.Sites = make([]*Tensor, m.N)
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
		// A unitary on the physical bond preserves canonical form, so the
		// centre is untouched (Fig. 1a).
		apply1InPlace(m.Sites[g.Qubits[0]], g.Mat.Data)
	case 2:
		if err := checkAdjacent(g); err != nil {
			return err
		}
		m.apply2(g.Mat, g.Qubits[0], g.Qubits[1])
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

// ApplyCircuit applies every gate of c in order. Runs of single-qubit gates
// on the same qubit are coalesced into one 2×2 product and single-qubit
// gates adjacent to a two-qubit gate are folded into its 4×4 matrix,
// reducing the number of site updates and SVD+canonicalisation events per
// circuit. Fusion is legal because a delayed single-qubit gate commutes with
// every gate on other qubits; it is disabled when per-gate observability is
// required (RecordMemory's ledger), which applies the gates one by one
// through ApplyGate.
func (m *MPS) ApplyCircuit(c *circuit.Circuit) error {
	if c.NumQubits != m.N {
		return fmt.Errorf("mps: circuit on %d qubits applied to %d-qubit state", c.NumQubits, m.N)
	}
	if m.cfg.RecordMemory {
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
			if err := checkAdjacent(g); err != nil {
				m.flushPending(ws)
				return fmt.Errorf("mps: gate %d: %w", i, err)
			}
			a, b := g.Qubits[0], g.Qubits[1]
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
			m.apply2(mat, a, b)
		}
		m.gatesApplied++
	}
	m.flushPending(ws)
	return nil
}

// checkAdjacent rejects a two-qubit gate on non-adjacent chain positions.
func checkAdjacent(g circuit.Gate) error {
	if d := g.Qubits[0] - g.Qubits[1]; d != 1 && d != -1 {
		return fmt.Errorf("mps: two-qubit gate %q on non-adjacent qubits %d,%d (route the circuit first)", g.Name, g.Qubits[0], g.Qubits[1])
	}
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

// ToStateVector reconstructs the dense 2^N amplitude vector (small N only,
// qubit 0 most significant); the paper notes this pairwise contraction
// yields the full state. The (2^k × χ) prefix is multiplied by each site's
// (χ × 2χ′) matricization in turn, one pass over the chain.
func (m *MPS) ToStateVector() []complex128 {
	if m.N > 20 {
		panic("mps: ToStateVector is for small qubit counts only")
	}
	vec := linalg.FromSlice(1, 1, []complex128{1})
	for _, s := range m.Sites {
		l, r := s.Shape[0], s.Shape[2]
		next := linalg.MatMul(vec, linalg.FromSlice(l, 2*r, s.Data))
		vec = linalg.FromSlice(2*vec.Rows, r, next.Data)
	}
	return vec.Data
}

// GatesApplied returns how many gates have been applied so far.
func (m *MPS) GatesApplied() int { return m.gatesApplied }

// CheckCanonical verifies the mixed-canonical invariant within tol: sites
// left of the centre are left-canonical isometries, sites right of it are
// right-canonical. Returns an error describing the first violation.
func (m *MPS) CheckCanonical(tol float64) error {
	for i := 0; i < m.center; i++ {
		s := m.Sites[i]
		mm := linalg.FromSlice(2*s.Shape[0], s.Shape[2], s.Data) // (l·2, r)
		if !mm.IsUnitary(tol) {
			return fmt.Errorf("mps: site %d left of centre %d is not left-canonical", i, m.center)
		}
	}
	for i := m.center + 1; i < m.N; i++ {
		s := m.Sites[i]
		mm := linalg.FromSlice(s.Shape[0], 2*s.Shape[2], s.Data) // (l, 2·r) — rows orthonormal
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
// can compare serial vs parallel execution on identical states. A nil be
// runs linalg's serial product directly.
func InnerWith(a, b *MPS, be backend.Backend) complex128 {
	if a.N != b.N {
		panic(fmt.Sprintf("mps: Inner on states of %d and %d qubits", a.N, b.N))
	}
	mul := linalg.MatMulSerial
	if be != nil {
		mul = be.MatMul
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
		tm := mul(env, bmat) // (la, 2·rb)
		// env'[ra, rb] = Σ_{i,s} conj(as[i,s,ra]) · T[i,s,rb]
		amat := linalg.FromSlice(la*2, ra, as.Data)
		aH := amat.ConjTranspose() // (ra, la·2)
		tmat := linalg.FromSlice(la*2, rb, tm.Data)
		env = mul(aH, tmat)
	}
	return env.At(0, 0)
}

// Overlap returns the kernel entry |⟨a|b⟩|² (equation (1) of the paper).
func Overlap(a, b *MPS) float64 {
	v := cmplx.Abs(Inner(a, b))
	return v * v
}
