//go:build !race

#include "textflag.h"

// Loops step AX over [0, n) by 4 (8 for dots), testing at the bottom as n > 0;
// MOVUPS, as rows need not be aligned; each MULPS/ADDPS is a Go-loop step.

// func add4SSE(o, a, b, c, d *float32, n int)
TEXT ·add4SSE(SB), NOSPLIT, $0-48
	MOVQ o+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ c+24(FP), R8
	MOVQ d+32(FP), R9
	MOVQ n+40(FP), CX
	XORQ AX, AX
add4loop:
	MOVUPS (SI)(AX*4), X0
	MOVUPS (BX)(AX*4), X1
	ADDPS  X1, X0         // a+b
	MOVUPS (R8)(AX*4), X2
	MOVUPS (R9)(AX*4), X3
	ADDPS  X3, X2         // c+d
	ADDPS  X2, X0         // (a+b)+(c+d)
	MOVUPS (DI)(AX*4), X1
	ADDPS  X0, X1
	MOVUPS X1, (DI)(AX*4)
	ADDQ   $4, AX
	CMPQ   AX, CX
	JLT    add4loop
	RET

// func axpySSE(o, a *float32, wa float32, n int)
TEXT ·axpySSE(SB), NOSPLIT, $0-32
	MOVQ   o+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVSS  wa+16(FP), X4
	SHUFPS $0, X4, X4
	MOVQ   n+24(FP), CX
	XORQ   AX, AX
axpyloop:
	MOVUPS (SI)(AX*4), X0
	MULPS  X4, X0         // wa·a
	MOVUPS (DI)(AX*4), X1
	ADDPS  X0, X1
	MOVUPS X1, (DI)(AX*4)
	ADDQ   $4, AX
	CMPQ   AX, CX
	JLT    axpyloop
	RET

// func axpy2SSE(o, a, b *float32, wa, wb float32, n int)
TEXT ·axpy2SSE(SB), NOSPLIT, $0-40
	MOVQ   o+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   b+16(FP), BX
	MOVSS  wa+24(FP), X4
	SHUFPS $0, X4, X4
	MOVSS  wb+28(FP), X5
	SHUFPS $0, X5, X5
	MOVQ   n+32(FP), CX
	XORQ   AX, AX
axpy2loop:
	MOVUPS (SI)(AX*4), X0
	MULPS  X4, X0         // wa·a
	MOVUPS (BX)(AX*4), X1
	MULPS  X5, X1         // wb·b
	ADDPS  X1, X0         // wa·a + wb·b
	MOVUPS (DI)(AX*4), X1
	ADDPS  X0, X1
	MOVUPS X1, (DI)(AX*4)
	ADDQ   $4, AX
	CMPQ   AX, CX
	JLT    axpy2loop
	RET

// func axpy4SSE(o, a, b, c, d *float32, wa, wb, wc, wd float32, n int)
TEXT ·axpy4SSE(SB), NOSPLIT, $0-64
	MOVQ   o+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   b+16(FP), BX
	MOVQ   c+24(FP), R8
	MOVQ   d+32(FP), R9
	MOVSS  wa+40(FP), X4
	SHUFPS $0, X4, X4
	MOVSS  wb+44(FP), X5
	SHUFPS $0, X5, X5
	MOVSS  wc+48(FP), X6
	SHUFPS $0, X6, X6
	MOVSS  wd+52(FP), X7
	SHUFPS $0, X7, X7
	MOVQ   n+56(FP), CX
	XORQ   AX, AX
axpy4loop:
	MOVUPS (SI)(AX*4), X0
	MULPS  X4, X0         // wa·a
	MOVUPS (BX)(AX*4), X1
	MULPS  X5, X1         // wb·b
	ADDPS  X1, X0         // wa·a + wb·b
	MOVUPS (R8)(AX*4), X2
	MULPS  X6, X2         // wc·c
	MOVUPS (R9)(AX*4), X3
	MULPS  X7, X3         // wd·d
	ADDPS  X3, X2         // wc·c + wd·d
	ADDPS  X2, X0
	MOVUPS (DI)(AX*4), X1
	ADDPS  X0, X1
	MOVUPS X1, (DI)(AX*4)
	ADDQ   $4, AX
	CMPQ   AX, CX
	JLT    axpy4loop
	RET

// func dotSSE(s *[4]float32, x, y *float32, n int): lane k of X0 is chain s_k.
TEXT ·dotSSE(SB), NOSPLIT, $0-32
	MOVQ   s+0(FP), DI
	MOVQ   x+8(FP), SI
	MOVQ   y+16(FP), DX
	MOVQ   n+24(FP), CX
	MOVUPS (DI), X0
	XORQ   AX, AX
dotloop:
	MOVUPS (SI)(AX*4), X1
	MOVUPS 16(SI)(AX*4), X2
	MOVUPS (DX)(AX*4), X3
	MOVUPS 16(DX)(AX*4), X4
	MULPS  X3, X1         // x[f+k]·y[f+k]
	MULPS  X4, X2         // x[f+k+4]·y[f+k+4]
	ADDPS  X2, X1
	ADDPS  X1, X0
	ADDQ   $8, AX
	CMPQ   AX, CX
	JLT    dotloop
	MOVUPS X0, (DI)
	RET

// func dot2SSE(s, t *[4]float32, x1, x2, y *float32, n int): x1 in X0, x2 in X5
TEXT ·dot2SSE(SB), NOSPLIT, $0-48
	MOVQ   s+0(FP), DI
	MOVQ   t+8(FP), R10
	MOVQ   x1+16(FP), SI
	MOVQ   x2+24(FP), BX
	MOVQ   y+32(FP), DX
	MOVQ   n+40(FP), CX
	MOVUPS (DI), X0
	MOVUPS (R10), X5
	XORQ   AX, AX
dot2loop:
	MOVUPS (DX)(AX*4), X3
	MOVUPS 16(DX)(AX*4), X4
	MOVUPS (SI)(AX*4), X1
	MOVUPS 16(SI)(AX*4), X2
	MULPS  X3, X1
	MULPS  X4, X2
	ADDPS  X2, X1
	ADDPS  X1, X0
	MOVUPS (BX)(AX*4), X6
	MOVUPS 16(BX)(AX*4), X7
	MULPS  X3, X6
	MULPS  X4, X7
	ADDPS  X7, X6
	ADDPS  X6, X5
	ADDQ   $8, AX
	CMPQ   AX, CX
	JLT    dot2loop
	MOVUPS X0, (DI)
	MOVUPS X5, (R10)
	RET
