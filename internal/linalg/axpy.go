package linalg

// axpyMinLen is the shortest row the vector kernel takes. Rows at bond 2
// and 3 (length ≤ 6) stay on the Go loop: the kernel wins from length 4 in
// isolation (BenchmarkAxpy), but sending those rows to it made bond-2
// simulations slower end to end.
const axpyMinLen = 8

// axpy adds a·src[j] to dst[j] for every j < len(src): the one row update
// under MatMulInto, MatMulAdjAInto and the truncation SVD's Gram. Rows of at
// least axpyMinLen go to the vector kernel where the CPU has one (axpyAVX on
// amd64 with AVX); the rest, and every other CPU, run axpyGo. Both round
// every product and sum exactly as Go's complex arithmetic does, so the
// choice never changes a bit.
func axpy(dst, src []complex128, a complex128) {
	if useAVX && len(src) >= axpyMinLen {
		axpyAVX(dst[:len(src)], src, a)
		return
	}
	axpyGo(dst, src, a)
}

// axpyGo is the portable row update, the definition the vector kernel is
// tested against.
func axpyGo(dst, src []complex128, a complex128) {
	dst = dst[:len(src)]
	for j, x := range src {
		dst[j] += a * x
	}
}
