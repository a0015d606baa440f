//go:build !amd64

package linalg

// useAVX is false off amd64: every row runs axpyGo.
const useAVX = false

// axpyAVX is never reached off amd64; it keeps axpy and its tests compiling.
func axpyAVX(dst, src []complex128, a complex128) { axpyGo(dst, src, a) }
