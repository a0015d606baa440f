package kernel

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dataset"
	"repro/internal/mps"
	"repro/internal/statevector"
)

func testData(rng *rand.Rand, n, m int) [][]float64 {
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, m)
		for j := range X[i] {
			X[i][j] = rng.Float64() * 2
		}
	}
	return X
}

func defaultQuantum(m int) *Quantum {
	return &Quantum{
		Ansatz: circuit.Ansatz{Qubits: m, Layers: 2, Distance: 1, Gamma: 0.5},
	}
}

func TestStateNormalised(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := defaultQuantum(6)
	st, err := q.State(testData(rng, 1, 6)[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Norm()-1) > 1e-9 {
		t.Fatalf("state norm %v", st.Norm())
	}
}

// TestStatesBitIdenticalToState: the worker pool is a scheduling choice
// only, so for fewer, as many and more rows than workers each state States
// returns holds exactly the tensors per-row State produces for its row, and
// a wrong-width row fails the call instead of hanging or panicking.
func TestStatesBitIdenticalToState(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	X := testData(rng, 7, 5)
	want := make([]*mps.MPS, len(X))
	for i, x := range X {
		st, err := defaultQuantum(5).State(x)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = st
	}
	for _, rows := range []int{1, 3, 7} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("rows%d_workers%d", rows, workers), func(t *testing.T) {
				q := defaultQuantum(5)
				q.Workers = workers
				got, err := q.States(X[:rows])
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != rows {
					t.Fatalf("got %d states for %d rows", len(got), rows)
				}
				for i := range got {
					for s, gs := range got[i].Sites {
						ws := want[i].Sites[s]
						if !slices.Equal(gs.Shape, ws.Shape) || !slices.Equal(gs.Data, ws.Data) {
							t.Fatalf("row %d site %d differs from State", i, s)
						}
					}
				}
				bad := append(slices.Clone(X[:rows]), []float64{1, 1})
				if _, err := q.States(bad); err == nil {
					t.Fatal("wrong-width row must error")
				}
			})
		}
	}
}

// TestStatesErrorNamesRow: a failing row surfaces an error that names the
// row rather than hanging or panicking.
func TestStatesErrorNamesRow(t *testing.T) {
	q := defaultQuantum(4)
	q.Workers = 2
	X := [][]float64{{1, 1, 1, 1}, {1, 1, 1, 1}, {1, 1}} // row 2 has the wrong width
	_, err := q.States(X)
	if err == nil {
		t.Fatal("wrong-width row must error")
	}
	if !strings.Contains(err.Error(), "state 2") {
		t.Fatalf("error %q does not name row 2", err)
	}
}

func TestStatesMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q := defaultQuantum(5)
	X := testData(rng, 6, 5)
	states, err := q.States(X)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		single, err := q.State(x)
		if err != nil {
			t.Fatal(err)
		}
		if ov := mps.Overlap(states[i], single); math.Abs(ov-1) > 1e-9 {
			t.Fatalf("parallel state %d differs from sequential: overlap %v", i, ov)
		}
	}
}

func TestGramProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := defaultQuantum(5)
	X := testData(rng, 8, 5)
	k, err := q.Gram(X)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateGram(k, 1e-8, true); err != nil {
		t.Fatal(err)
	}
}

func TestGramMatchesStatevector(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := circuit.Ansatz{Qubits: 4, Layers: 1, Distance: 2, Gamma: 0.7}
	q := &Quantum{Ansatz: a}
	X := testData(rng, 5, 4)
	k, err := q.Gram(X)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle Gram from dense simulation.
	svs := make([]*statevector.State, len(X))
	for i, x := range X {
		c, err := a.Build(x)
		if err != nil {
			t.Fatal(err)
		}
		svs[i] = statevector.Run(c)
	}
	for i := range X {
		for j := range X {
			want := cmplx.Abs(statevector.Inner(svs[i], svs[j]))
			want *= want
			if math.Abs(k[i][j]-want) > 1e-8 {
				t.Fatalf("K[%d][%d] = %v, oracle %v", i, j, k[i][j], want)
			}
		}
	}
}

func TestCrossKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := defaultQuantum(4)
	Xtr := testData(rng, 6, 4)
	Xte := testData(rng, 3, 4)
	kc, err := q.Cross(Xte, Xtr)
	if err != nil {
		t.Fatal(err)
	}
	if len(kc) != 3 || len(kc[0]) != 6 {
		t.Fatalf("cross kernel shape %d×%d", len(kc), len(kc[0]))
	}
	for i := range kc {
		for j := range kc[i] {
			if kc[i][j] < 0 || kc[i][j] > 1+1e-9 {
				t.Fatalf("cross entry (%d,%d) = %v outside [0,1]", i, j, kc[i][j])
			}
		}
	}
}

func TestStatePropagatesAnsatzErrors(t *testing.T) {
	q := &Quantum{Ansatz: circuit.Ansatz{Qubits: 3, Layers: 0, Distance: 1, Gamma: 1}}
	if _, err := q.State([]float64{1, 1, 1}); err == nil {
		t.Fatal("invalid ansatz must error")
	}
	q2 := defaultQuantum(3)
	if _, err := q2.States([][]float64{{1, 1}}); err == nil {
		t.Fatal("wrong feature count must error")
	}
}

func TestGaussianKernelKnown(t *testing.T) {
	g := Gaussian{Alpha: 0.5}
	x := []float64{0, 0}
	y := []float64{1, 1}
	want := math.Exp(-0.5 * 2)
	if got := g.Entry(x, y); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Entry = %v, want %v", got, want)
	}
	if g.Entry(x, x) != 1 {
		t.Fatal("self-similarity must be 1")
	}
}

func TestGaussianGramValid(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	X := testData(rng, 10, 4)
	g := Gaussian{Alpha: 0.3}
	k := g.Gram(X)
	if err := ValidateGram(k, 1e-9, true); err != nil {
		t.Fatal(err)
	}
	kc := g.Cross(X[:3], X)
	for i := 0; i < 3; i++ {
		for j := range X {
			if math.Abs(kc[i][j]-k[i][j]) > 1e-12 {
				t.Fatal("cross kernel disagrees with Gram on shared rows")
			}
		}
	}
}

func TestNewGaussianFromData(t *testing.T) {
	d := &dataset.Dataset{
		X: [][]float64{{0, 0}, {2, 2}, {0, 2}, {2, 0}},
		Y: []int{1, -1, 1, -1},
	}
	g := NewGaussianFromData(d)
	// var per feature = 4/3; m=2 → α = 1/(2·4/3) = 0.375.
	if math.Abs(g.Alpha-0.375) > 1e-12 {
		t.Fatalf("α = %v, want 0.375", g.Alpha)
	}
	// Degenerate dataset falls back to α=1.
	g2 := NewGaussianFromData(&dataset.Dataset{})
	if g2.Alpha != 1 {
		t.Fatalf("fallback α = %v", g2.Alpha)
	}
}

func TestValidateGramRejects(t *testing.T) {
	if err := ValidateGram(nil, 1e-9, false); err == nil {
		t.Fatal("empty must fail")
	}
	if err := ValidateGram([][]float64{{1, 0}}, 1e-9, false); err == nil {
		t.Fatal("ragged must fail")
	}
	if err := ValidateGram([][]float64{{0.5, 0}, {0, 1}}, 1e-9, false); err == nil {
		t.Fatal("bad diagonal must fail")
	}
	if err := ValidateGram([][]float64{{1, 0.5}, {0.2, 1}}, 1e-9, false); err == nil {
		t.Fatal("asymmetry must fail")
	}
	if err := ValidateGram([][]float64{{1, 1.5}, {1.5, 1}}, 1e-9, false); err == nil {
		t.Fatal("out-of-range entry must fail")
	}
	// A symmetric matrix with unit diagonal that is NOT PSD:
	// [[1, 0.9, 0], [0.9, 1, 0.9], [0, 0.9, 1]] has a negative eigenvalue.
	notPSD := [][]float64{{1, 0.9, 0}, {0.9, 1, 0.9}, {0, 0.9, 1}}
	if err := ValidateGram(notPSD, 1e-9, true); err == nil {
		t.Fatal("non-PSD matrix must fail the PSD check")
	}
}

// TestValidateGramRejectsNonFinite: NaN fails every </> comparison, so each
// invariant check alone would let a non-finite entry through; the error must
// name the offending position.
func TestValidateGramRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		k    [][]float64
		pos  string
	}{
		{"NaN off the diagonal", [][]float64{{1, nan}, {nan, 1}}, "(0,1)"},
		{"NaN on the diagonal", [][]float64{{1, 0.5}, {0.5, nan}}, "(1,1)"},
		{"+Inf", [][]float64{{1, 0.5, 0}, {0.5, 1, 0}, {0, inf, 1}}, "(2,1)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, psd := range []bool{false, true} {
				err := ValidateGram(c.k, 1e-8, psd)
				if err == nil {
					t.Fatalf("checkPSD=%v: non-finite Gram accepted", psd)
				}
				if !strings.Contains(err.Error(), c.pos) {
					t.Fatalf("checkPSD=%v: error %q does not name entry %s", psd, err, c.pos)
				}
			}
		})
	}
}

func TestMeasureConcentration(t *testing.T) {
	k := [][]float64{{1, 0.5}, {0.5, 1}}
	c := MeasureConcentration(k)
	if math.Abs(c.Mean-0.5) > 1e-12 || c.Var > 1e-12 {
		t.Fatalf("concentration %+v", c)
	}
	if MeasureConcentration([][]float64{{1}}).Mean != 0 {
		t.Fatal("1×1 matrix should have zero stats")
	}
}

func TestKernelConcentrationWithDepth(t *testing.T) {
	// The paper's Table III mechanism: deeper ansatz repetitions concentrate
	// the kernel (off-diagonal variance shrinks, entries → small).
	rng := rand.New(rand.NewSource(9))
	X := testData(rng, 6, 5)
	shallow := &Quantum{Ansatz: circuit.Ansatz{Qubits: 5, Layers: 1, Distance: 1, Gamma: 0.3}}
	deep := &Quantum{Ansatz: circuit.Ansatz{Qubits: 5, Layers: 8, Distance: 1, Gamma: 0.3}}
	ks, err := shallow.Gram(X)
	if err != nil {
		t.Fatal(err)
	}
	kd, err := deep.Gram(X)
	if err != nil {
		t.Fatal(err)
	}
	cs, cd := MeasureConcentration(ks), MeasureConcentration(kd)
	if cd.Mean >= cs.Mean {
		t.Fatalf("deep kernel mean %v should drop below shallow %v", cd.Mean, cs.Mean)
	}
}

// BenchmarkGramFromStates isolates the O(N²) overlap stage: states are
// simulated once outside the timer, so ns/op and allocs/op measure the
// row-band scheduler and the per-worker zero-realloc workspaces alone.
func BenchmarkGramFromStates(b *testing.B) {
	full := dataset.GenerateElliptic(dataset.EllipticConfig{Features: 16, NumIllicit: 32, NumLicit: 32, Seed: 1})
	sc, err := dataset.FitScaler(full)
	if err != nil {
		b.Fatal(err)
	}
	scaled, err := sc.Transform(full)
	if err != nil {
		b.Fatal(err)
	}
	q := &Quantum{Ansatz: circuit.Ansatz{Qubits: 16, Layers: 2, Distance: 2, Gamma: 0.5}}
	states, err := q.States(scaled.X[:32])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = GramFromStates(states, runtime.GOMAXPROCS(0))
	}
}
