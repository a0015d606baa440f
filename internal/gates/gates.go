// Package gates defines the quantum gate matrices used by the paper's circuit
// ansatz (Fig. 3): Hadamard, RZ, RXX and the SWAP gates inserted by routing,
// plus a few extras used in tests. All matrices are unitary complex128
// matrices over the computational basis.
//
// Two-qubit matrices act on the basis |q_a q_b⟩ ordered {00, 01, 10, 11},
// with the first qubit the more significant index.
package gates

import (
	"math"
	"math/cmplx"

	"repro/internal/linalg"
)

// H returns the Hadamard gate, used to prepare the |+⟩^m initial state of the
// ansatz (equation (2) of the paper).
func H() *linalg.Matrix {
	s := complex(1/math.Sqrt2, 0)
	return linalg.FromSlice(2, 2, []complex128{s, s, s, -s})
}

// X returns the Pauli-X gate.
func X() *linalg.Matrix {
	return linalg.FromSlice(2, 2, []complex128{0, 1, 1, 0})
}

// Y returns the Pauli-Y gate.
func Y() *linalg.Matrix {
	return linalg.FromSlice(2, 2, []complex128{0, -1i, 1i, 0})
}

// Z returns the Pauli-Z gate.
func Z() *linalg.Matrix {
	return linalg.FromSlice(2, 2, []complex128{1, 0, 0, -1})
}

// RZ returns exp(−iθZ/2) = diag(e^{−iθ/2}, e^{iθ/2}).
//
// The ansatz applies e^{−iγ·x_i·Z} on qubit i for the HZ Hamiltonian of
// equation (4), which equals RZ(2γx_i).
func RZ(theta float64) *linalg.Matrix {
	m := linalg.NewMatrix(2, 2)
	SetRZ(m.Data, theta)
	return m
}

// SetRZ writes every entry of RZ(θ) into d (row-major, length 4): the one
// place RZ's entries are computed, shared by RZ and by circuit.Program.Bind.
func SetRZ(d []complex128, theta float64) {
	e := cmplx.Exp(complex(0, -theta/2))
	d[0], d[1], d[2], d[3] = e, 0, 0, cmplx.Conj(e)
}

// RX returns exp(−iθX/2).
func RX(theta float64) *linalg.Matrix {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	return linalg.FromSlice(2, 2, []complex128{c, s, s, c})
}

// RXX returns the two-qubit gate exp(−iθ·X⊗X/2).
//
// The ansatz applies e^{−i·c_ij·X_iX_j} per edge (i,j) with coefficient
// c_ij = γ²·(π/2)·(1−x_i)(1−x_j) from equation (5), which equals RXX(2c_ij).
// Since X⊗X swaps |00⟩↔|11⟩ and |01⟩↔|10⟩, the matrix couples those pairs
// with cos/−i·sin entries.
func RXX(theta float64) *linalg.Matrix {
	m := linalg.NewMatrix(4, 4)
	SetRXX(m.Data, theta)
	return m
}

// SetRXX writes every entry of RXX(θ) into d (row-major, length 16): the one
// place RXX's entries are computed, shared by RXX and by
// circuit.Program.Bind.
func SetRXX(d []complex128, theta float64) {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	*(*[16]complex128)(d) = [16]complex128{
		c, 0, 0, s,
		0, c, s, 0,
		0, s, c, 0,
		s, 0, 0, c,
	}
}

// SWAP returns the two-qubit SWAP gate. Routing (section II-C) inserts
// 2(k−1) of these around each RXX acting on qubits at chain distance k.
func SWAP() *linalg.Matrix {
	return linalg.FromSlice(4, 4, []complex128{
		1, 0, 0, 0,
		0, 0, 1, 0,
		0, 1, 0, 0,
		0, 0, 0, 1,
	})
}

// CX returns the controlled-X gate (control = first qubit).
func CX() *linalg.Matrix {
	return linalg.FromSlice(4, 4, []complex128{
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 0, 1,
		0, 0, 1, 0,
	})
}

// Kron returns the Kronecker product a ⊗ b.
func Kron(a, b *linalg.Matrix) *linalg.Matrix {
	m := linalg.NewMatrix(a.Rows*b.Rows, a.Cols*b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			av := a.At(i, j)
			if av == 0 {
				continue
			}
			for k := 0; k < b.Rows; k++ {
				for l := 0; l < b.Cols; l++ {
					m.Set(i*b.Rows+k, j*b.Cols+l, av*b.At(k, l))
				}
			}
		}
	}
	return m
}

// RY returns exp(−iθY/2).
func RY(theta float64) *linalg.Matrix {
	c := complex(math.Cos(theta/2), 0)
	s := complex(math.Sin(theta/2), 0)
	return linalg.FromSlice(2, 2, []complex128{c, -s, s, c})
}

// CZ returns the controlled-Z gate (symmetric in its qubits).
func CZ() *linalg.Matrix {
	return linalg.FromSlice(4, 4, []complex128{
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, -1,
	})
}

// RZZ returns exp(−iθ·Z⊗Z/2), the diagonal two-qubit rotation; alongside
// RXX it covers the common Ising-type interactions.
func RZZ(theta float64) *linalg.Matrix {
	em := cmplx.Exp(complex(0, -theta/2))
	ep := cmplx.Exp(complex(0, theta/2))
	return linalg.FromSlice(4, 4, []complex128{
		em, 0, 0, 0,
		0, ep, 0, 0,
		0, 0, ep, 0,
		0, 0, 0, em,
	})
}
