package linalg

// useAVX reports whether the CPU executes AVX and the operating system saves
// the YMM registers across context switches: CPUID leaf 1 sets OSXSAVE and
// AVX, and XCR0 enables the SSE and AVX state. Checked once, at init.
var useAVX = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}()

// axpyAVX is axpy on YMM registers, two complex128 values per register. Each
// product is formed as Go forms a*x — real ar·xr − ai·xi, imag ar·xi + ai·xr,
// each product rounded before the sum (VMULPD, then VADDSUBPD; no FMA, which
// would round once and change the bits) — and added to dst after dst's
// value, as dst[j] += a*x does. len(dst) must be at least len(src).
//
//go:noescape
func axpyAVX(dst, src []complex128, a complex128)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
