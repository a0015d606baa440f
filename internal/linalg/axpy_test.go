package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// axpyRef is the loop every axpy path must reproduce bit for bit: the row
// update MatMulInto, MatMulAdjAInto and the truncation Gram ran before the
// row kernels existed.
func axpyRef(dst, src []complex128, a complex128) {
	for j, x := range src {
		dst[j] += a * x
	}
}

// axpyPath is one implementation of the row update; ok is false for the
// vector kernel on a CPU (or GOARCH) without it.
type axpyPath struct {
	name string
	fn   func(dst, src []complex128, a complex128)
	ok   bool
}

var axpyPaths = []axpyPath{
	{"axpy", axpy, true},
	{"go", axpyGo, true},
	{"avx", axpyAVX, useAVX},
}

// axpyCheck runs every path on a copy of dst (one spare element past
// len(src), which no path may touch) and compares each result with axpyRef.
// exactNaN false accepts any NaN for a NaN: with a NaN among the inputs, Go
// leaves the payload that survives a sum unspecified.
func axpyCheck(t *testing.T, dst, src []complex128, a complex128, exactNaN bool) {
	t.Helper()
	const spare = complex(7, -7)
	want := append(append([]complex128(nil), dst...), spare)
	axpyRef(want, src, a)
	for _, p := range axpyPaths {
		if !p.ok {
			continue
		}
		got := append(append([]complex128(nil), dst...), spare)
		p.fn(got, src, a)
		for j := range want {
			if !sameBits(real(got[j]), real(want[j]), exactNaN) || !sameBits(imag(got[j]), imag(want[j]), exactNaN) {
				t.Fatalf("%s: n=%d a=%v: entry %d = %v, Go loop gives %v (dst %v, src %v)",
					p.name, len(src), a, j, got[j], want[j], dst[j], src[min(j, len(src)-1)])
			}
		}
	}
}

func sameBits(x, y float64, exactNaN bool) bool {
	if !exactNaN && math.IsNaN(x) && math.IsNaN(y) {
		return true
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

// TestAxpyMatchesGoLoop pins every row-update path to the Go loop, bit for
// bit, at every length up to 17 (each tail of the four-, two- and one-value
// steps, below and above axpyMinLen), on random values, signed zeros,
// subnormals, values whose products overflow to ±Inf and Inf − Inf = NaN,
// and scalars that are zero or purely real or imaginary.
func TestAxpyMatchesGoLoop(t *testing.T) {
	if !useAVX {
		t.Log("no AVX kernel on this CPU: checking the Go paths only")
	}
	rng := rand.New(rand.NewSource(54))
	negZero := math.Copysign(0, -1)
	special := []float64{
		0, negZero, 1, -1, 0.5, -3,
		5e-324, -5e-324, 2.2250738585072e-308, -1e-310, // subnormal and near it
		math.MaxFloat64, -math.MaxFloat64, 1.3e308, -9e307, 1e154, 1e-300,
		math.Inf(1), math.Inf(-1),
	}
	pick := func() float64 { return special[rng.Intn(len(special))] }
	scalars := []complex128{
		0, complex(negZero, 0), complex(0, negZero), complex(negZero, negZero),
		1, -1, 1i, -1i, complex(2.5, 0), complex(0, -0.75),
		complex(negZero, 3), complex(3, negZero),
		complex(1e308, 1e308), complex(5e-324, -5e-324), complex(math.MaxFloat64, 0.5),
		complex(rng.NormFloat64(), rng.NormFloat64()),
		complex(rng.NormFloat64(), rng.NormFloat64()),
	}
	fills := []func() complex128{
		func() complex128 { return complex(rng.NormFloat64(), rng.NormFloat64()) },
		func() complex128 { return complex(pick(), pick()) },
		func() complex128 {
			return complex(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(600)-300)), pick())
		},
	}
	for n := 0; n <= 17; n++ {
		for _, fill := range fills {
			for _, a := range scalars {
				src := make([]complex128, n)
				dst := make([]complex128, n)
				for j := range src {
					src[j], dst[j] = fill(), fill()
				}
				axpyCheck(t, dst, src, a, true)
			}
		}
	}
}

// FuzzAxpy checks every path against the Go loop on fuzzed lengths, scalars
// and two fuzzed entries placed among seeded random ones.
func FuzzAxpy(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add(uint8(0), 1.0, 0.0, 1.0, 2.0, 3.0, 4.0, int64(1))
	f.Add(uint8(1), 0.5, -0.25, 1.0, -1.0, 0.0, 0.0, int64(2))
	f.Add(uint8(7), 0.0, 1.0, 5e-324, -5e-324, negZero, 0.0, int64(3))
	f.Add(uint8(8), 1e308, 1e308, 1e308, -1e308, 1.0, 1.0, int64(4))
	f.Add(uint8(13), negZero, negZero, math.MaxFloat64, 2.0, -math.MaxFloat64, 0.0, int64(5))
	f.Add(uint8(17), math.Inf(1), 0.0, 0.0, 1.0, 1.0, 0.0, int64(6))
	f.Add(uint8(32), math.NaN(), 1.0, 2.0, math.NaN(), 0.0, 1.0, int64(7))
	f.Fuzz(func(t *testing.T, n uint8, ar, ai, xr, xi, dr, di float64, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		m := int(n % 40)
		src := make([]complex128, m)
		dst := make([]complex128, m)
		for j := range src {
			src[j] = complex(rng.NormFloat64(), rng.NormFloat64())
			dst[j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		if m > 0 {
			src[rng.Intn(m)] = complex(xr, xi)
			dst[rng.Intn(m)] = complex(dr, di)
		}
		exactNaN := true
		for _, v := range []float64{ar, ai, xr, xi, dr, di} {
			exactNaN = exactNaN && !math.IsNaN(v)
		}
		axpyCheck(t, dst, src, complex(ar, ai), exactNaN)
	})
}

// BenchmarkAxpy times one row update per path at the row lengths the
// workloads produce (bond 2–3 rows are 3–6 long, χ = 32 rows 32–64): the
// measurement behind axpyMinLen.
func BenchmarkAxpy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{4, 6, 8, 12, 16, 32, 64} {
		src := make([]complex128, n)
		dst := make([]complex128, n)
		for j := range src {
			src[j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		for _, p := range axpyPaths[1:] {
			if !p.ok {
				continue
			}
			b.Run(fmt.Sprintf("n%d/%s", n, p.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p.fn(dst, src, a)
				}
			})
		}
	}
}
