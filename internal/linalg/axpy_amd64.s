#include "textflag.h"

// func axpyAVX(dst, src []complex128, a complex128)
//
// Per complex value x = [xr, xi] of src and d of dst:
//   p = [ar·xr, ar·xi] -+ [ai·xi, ai·xr]   (VMULPD ×2, VPERMILPD, VADDSUBPD)
//   d = d + p                              (VADDPD)
// Four values per loop (two YMM), then two (one YMM), then one (XMM).
TEXT ·axpyAVX(SB), NOSPLIT, $0-64
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	VBROADCASTSD a_real+48(FP), Y0 // [ar, ar, ar, ar]
	VBROADCASTSD a_imag+56(FP), Y1 // [ai, ai, ai, ai]

loop4:
	CMPQ      CX, $4
	JLT       tail2
	VMOVUPD   (SI), Y2             // [xr, xi, xr', xi']
	VMOVUPD   32(SI), Y3
	VPERMILPD $5, Y2, Y4           // [xi, xr, xi', xr']
	VPERMILPD $5, Y3, Y5
	VMULPD    Y2, Y0, Y2           // [ar·xr, ar·xi, …]
	VMULPD    Y3, Y0, Y3
	VMULPD    Y4, Y1, Y4           // [ai·xi, ai·xr, …]
	VMULPD    Y5, Y1, Y5
	VADDSUBPD Y4, Y2, Y2           // [ar·xr − ai·xi, ar·xi + ai·xr, …]
	VADDSUBPD Y5, Y3, Y3
	VMOVUPD   (DI), Y6
	VMOVUPD   32(DI), Y7
	VADDPD    Y2, Y6, Y6
	VADDPD    Y3, Y7, Y7
	VMOVUPD   Y6, (DI)
	VMOVUPD   Y7, 32(DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $4, CX
	JMP       loop4

tail2:
	CMPQ      CX, $2
	JLT       tail1
	VMOVUPD   (SI), Y2
	VPERMILPD $5, Y2, Y4
	VMULPD    Y2, Y0, Y2
	VMULPD    Y4, Y1, Y4
	VADDSUBPD Y4, Y2, Y2
	VMOVUPD   (DI), Y6
	VADDPD    Y2, Y6, Y6
	VMOVUPD   Y6, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	SUBQ      $2, CX

tail1:
	CMPQ      CX, $1
	JLT       done
	VMOVUPD   (SI), X2
	VPERMILPD $5, X2, X4
	VMULPD    X2, X0, X2
	VMULPD    X4, X1, X4
	VADDSUBPD X4, X2, X2
	VMOVUPD   (DI), X6
	VADDPD    X2, X6, X6
	VMOVUPD   X6, (DI)

done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
