//go:build !race

#include "textflag.h"

// Loops step AX over [0, n) by 4, testing at the bottom as n > 0 (the dots
// step by 8 and test at the top);
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

// The neighbour walks, o += Σ rows data[idx[p]·stride:] (each scaled by
// w[eid[p]] in the scaled walk), in AVX2: a strip of o's columns stays in
// Y0–Y7 across every row of idx, loaded and stored once. Strips of 64
// columns, then one each of 32, 16 and 8 (n is a multiple of 8). Per group
// of four rows a, b, c, d the strip adds (a+b)+(c+d), or
// (wa·a+wb·b)+(wc·c+wd·d), VMULPS then VADDPS (never a fused multiply-add),
// as Add4 and Axpy4 do; a leftover row adds alone, as Add and Axpy do. So
// each element's sum is the per-group loop's, bit for bit. MOVL
// zero-extends each index and edge id, which the Go wrapper has proven in
// range read as a uint32.
// Registers: DI o's strip, SI data's (data + 4·columns done), DX the row
// stride in bytes, BX columns left, R14 idx, R15 m, R13 the next index, CX
// indices left, AX/R10/R11/R12 the group's rows, R8 eid − idx in bytes, R9
// w; Y8–Y10 temporaries, Y12–Y15 the group's weights. (ABI0 code may use
// R14, and R15 as it reads no global.) Each TEXT has one exit, through
// VZEROUPPER.

// ROW sets r to the row at index off(R13).
#define ROW(off, r) \
	MOVL  off(R13), r; \
	IMULQ DX, r; \
	ADDQ  SI, r

// COLSw(M) applies M(off, acc) to each 8-column block of a w-column strip.
#define COLS8(M) M(0, Y0)
#define COLS16(M) COLS8(M); M(32, Y1)
#define COLS32(M) COLS16(M); M(64, Y2); M(96, Y3)
#define COLS64(M) COLS32(M); M(128, Y4); M(160, Y5); M(192, Y6); M(224, Y7)

#define LOADO(off, acc) VMOVUPS off(DI), acc
#define STOREO(off, acc) VMOVUPS acc, off(DI)

#define ADD4(off, acc) \
	VMOVUPS off(AX), Y8; \
	VADDPS  off(R10), Y8, Y8; \
	VMOVUPS off(R11), Y9; \
	VADDPS  off(R12), Y9, Y9; \
	VADDPS  Y9, Y8, Y8; \
	VADDPS  Y8, acc, acc
#define ADD1(off, acc) VADDPS off(AX), acc, acc
#define SUM4(COLS) ROW(0, AX); ROW(4, R10); ROW(8, R11); ROW(12, R12); COLS(ADD4)
#define SUM1(COLS) ROW(0, AX); COLS(ADD1)

// WEIGHT broadcasts w[eid[p]] into y, p the index at off(R13).
#define WEIGHT(off, y) \
	MOVL         off(R13)(R8*1), AX; \
	VBROADCASTSS (R9)(AX*4), y
#define AXPY4(off, acc) \
	VMULPS off(AX), Y12, Y8; \
	VMULPS off(R10), Y13, Y9; \
	VADDPS Y9, Y8, Y8; \
	VMULPS off(R11), Y14, Y9; \
	VMULPS off(R12), Y15, Y10; \
	VADDPS Y10, Y9, Y9; \
	VADDPS Y9, Y8, Y8; \
	VADDPS Y8, acc, acc
#define AXPY1(off, acc) \
	VMULPS off(AX), Y12, Y8; \
	VADDPS Y8, acc, acc
#define SCALED4(COLS) \
	WEIGHT(0, Y12); WEIGHT(4, Y13); WEIGHT(8, Y14); WEIGHT(12, Y15); \
	ROW(0, AX); ROW(4, R10); ROW(8, R11); ROW(12, R12); \
	COLS(AXPY4)
#define SCALED1(COLS) WEIGHT(0, Y12); ROW(0, AX); COLS(AXPY1)

// STRIP walks every row of idx over one w-column strip, unless fewer than
// w columns are left (then on to next): groups of four while four indices
// are left, then one at a time.
#define STRIP(COLS, w, G4, G1, next, grp, one, end) \
	CMPQ  BX, $w; \
	JLT   next; \
	COLS(LOADO); \
	MOVQ  R14, R13; \
	MOVQ  R15, CX; \
	CMPQ  CX, $4; \
	JLT   one; \
grp: \
	G4(COLS); \
	ADDQ  $16, R13; \
	SUBQ  $4, CX; \
	CMPQ  CX, $4; \
	JGE   grp; \
one: \
	TESTQ CX, CX; \
	JZ    end; \
	G1(COLS); \
	ADDQ  $4, R13; \
	DECQ  CX; \
	JMP   one; \
end: \
	COLS(STOREO); \
	ADDQ  $(4*w), DI; \
	ADDQ  $(4*w), SI; \
	SUBQ  $w, BX

#define WALK(G4, G1) \
s64: \
	STRIP(COLS64, 64, G4, G1, s32, g64, o64, e64); \
	JMP   s64; \
s32: \
	STRIP(COLS32, 32, G4, G1, s16, g32, o32, e32); \
s16: \
	STRIP(COLS16, 16, G4, G1, s8, g16, o16, e16); \
s8: \
	STRIP(COLS8, 8, G4, G1, done, g8, o8, e8); \
done: \
	VZEROUPPER; \
	RET

// func sumRowsAVX2(o, data *float32, stride int, idx *int32, m, n int)
TEXT ·sumRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ o+0(FP), DI
	MOVQ data+8(FP), SI
	MOVQ stride+16(FP), DX
	SHLQ $2, DX
	MOVQ idx+24(FP), R14
	MOVQ m+32(FP), R15
	MOVQ n+40(FP), BX
	WALK(SUM4, SUM1)

// func scaledSumRowsAVX2(o, data *float32, stride int, idx *int32, m, n int, eid *int32, w *float32)
TEXT ·scaledSumRowsAVX2(SB), NOSPLIT, $0-64
	MOVQ o+0(FP), DI
	MOVQ data+8(FP), SI
	MOVQ stride+16(FP), DX
	SHLQ $2, DX
	MOVQ idx+24(FP), R14
	MOVQ m+32(FP), R15
	MOVQ n+40(FP), BX
	MOVQ eid+48(FP), R8
	SUBQ R14, R8
	MOVQ w+56(FP), R9
	WALK(SCALED4, SCALED1)

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET

// DOT8 adds lane k of block AX of x·y, x[f+k]·y[f+k] + x[f+k+4]·y[f+k+4],
// into lane k of acc.
#define DOT8(x, y, acc, t0, t1, t2, t3) \
	MOVUPS (x)(AX*4), t0; \
	MOVUPS 16(x)(AX*4), t1; \
	MOVUPS (y)(AX*4), t2; \
	MOVUPS 16(y)(AX*4), t3; \
	MULPS  t2, t0; \
	MULPS  t3, t1; \
	ADDPS  t1, t0; \
	ADDPS  t0, acc

// DOT1 adds x[AX]·y[AX] into lane 0 of acc, as Dot's Go tail does.
#define DOT1(x, y, acc, t) \
	MOVSS (x)(AX*4), t; \
	MULSS (y)(AX*4), t; \
	ADDSS t, acc

// The dot walks: four positions per group side by side (DOTS4), a leftover
// one alone (DOTS1), each dot Dot's. MOVL zero-extends each index and edge
// id, which the Go wrapper has proven in range read as a uint32. Registers:
// SI, BX, R8, R10 the x rows, AX the element, CX n &^ 7, R14 n, R12 the
// position p, R13 the x indices; a TEXT hands its arguments to a macro,
// where go vet's asmdecl checks them.

// ROWPTR sets r to base + 4·stride·index, the index the uint32 at idx.
#define ROWPTR(idx, stride, base, r) \
	MOVL  idx, r; \
	IMULQ stride, r; \
	SHLQ  $2, r; \
	ADDQ  base, r

// ROWS4 sets r0…r3 to the rows at the four indices from idx[pos].
#define ROWS4(idx, pos, stride, base, r0, r1, r2, r3) \
	ROWPTR(0(idx)(pos*4), stride, base, r0); \
	ROWPTR(4(idx)(pos*4), stride, base, r1); \
	ROWPTR(8(idx)(pos*4), stride, base, r2); \
	ROWPTR(12(idx)(pos*4), stride, base, r3)

// DOTS4 sets X6 to the dots of the pairs (SI, y1), (BX, y2), (R8, y3) and
// (R10, y4), chains a, b, c, d in X0–X3. The 4×4 transpose makes X4 =
// a0 b0 a1 b1, X0 = a2 b2 a3 b3, X5 = c0 d0 c1 d1 and X2 = c2 d2 c3 d3,
// then L0 (lane 0 of every chain) in X6, L1 in X5, L2 in X7 and L3 in X2,
// and (L0+L1)+(L2+L3) is every pair's (s0+s1)+(s2+s3).
#define DOTS4(y1, y2, y3, y4) \
	XORPS X0, X0; \
	XORPS X1, X1; \
	XORPS X2, X2; \
	XORPS X3, X3; \
	XORQ  AX, AX; \
	JMP   test8; \
blk8: \
	DOT8(SI, y1, X0, X4, X5, X6, X7); \
	DOT8(BX, y2, X1, X8, X9, X10, X11); \
	DOT8(R8, y3, X2, X12, X13, X14, X15); \
	DOT8(R10, y4, X3, X4, X5, X6, X7); \
	ADDQ  $8, AX; \
test8: \
	CMPQ  AX, CX; \
	JLT   blk8; \
	JMP   test1; \
blk1: \
	DOT1(SI, y1, X0, X4); \
	DOT1(BX, y2, X1, X5); \
	DOT1(R8, y3, X2, X6); \
	DOT1(R10, y4, X3, X7); \
	INCQ  AX; \
test1: \
	CMPQ  AX, R14; \
	JLT   blk1; \
	MOVAPS   X0, X4; \
	UNPCKLPS X1, X4; \
	UNPCKHPS X1, X0; \
	MOVAPS   X2, X5; \
	UNPCKLPS X3, X5; \
	UNPCKHPS X3, X2; \
	MOVAPS   X4, X6; \
	MOVLHPS  X5, X6; \
	MOVHLPS  X4, X5; \
	MOVAPS   X0, X7; \
	MOVLHPS  X2, X7; \
	MOVHLPS  X0, X2; \
	ADDPS    X5, X6; \
	ADDPS    X2, X7; \
	ADDPS    X7, X6

// DOTS1 sets lane 0 of X6 to the dot of the pair (SI, y), lanes s0…s3 in
// X0: X6 = s0+s1, ·, s2+s3, ·, then lane 0 (s0+s1)+(s2+s3).
#define DOTS1(y) \
	XORPS X0, X0; \
	XORQ  AX, AX; \
	JMP   one8test; \
one8: \
	DOT8(SI, y, X0, X4, X5, X6, X7); \
	ADDQ  $8, AX; \
one8test: \
	CMPQ  AX, CX; \
	JLT   one8; \
	JMP   one1test; \
one1: \
	DOT1(SI, y, X0, X4); \
	INCQ  AX; \
one1test: \
	CMPQ  AX, R14; \
	JLT   one1; \
	MOVAPS  X0, X6; \
	SHUFPS  $0xb1, X0, X0; \
	ADDPS   X0, X6; \
	MOVHLPS X6, X0; \
	ADDSS   X0, X6

// PUT stores lane 0 of X6 at out[eids[p+off/4]], DI out and SI eids, first
// adding what is there unless DX (acc) is 0, then rotates X6's next lane
// down.
#define PUT(off, skip) \
	MOVL   off(SI)(R12*4), BX; \
	TESTQ  DX, DX; \
	JZ     skip; \
	ADDSS  (DI)(BX*4), X6; \
skip: \
	MOVSS  X6, (DI)(BX*4); \
	SHUFPS $0x39, X6, X6

// func dotEdgesSSE(out, x *float32, xs int, y *float32, ys, n int, cols, rows, eids *int32, m int, acc bool):
// R15 rows; the y rows of a group in DI, DX, R9, R11. No prefetch.
TEXT ·dotEdgesSSE(SB), NOSPLIT, $0-81
	MOVQ n+40(FP), R14
	MOVQ R14, CX
	ANDQ $-8, CX
	MOVQ cols+48(FP), R13
	MOVQ rows+56(FP), R15
	XORQ R12, R12
	JMP  edge4test
edge4:
	ROWS4(R13, R12, xs+16(FP), x+8(FP), SI, BX, R8, R10)
	ROWS4(R15, R12, ys+32(FP), y+24(FP), DI, DX, R9, R11)
	DOTS4(DI, DX, R9, R11)
	MOVQ    out+0(FP), DI
	MOVQ    eids+64(FP), SI
	MOVBQZX acc+80(FP), DX
	PUT(0, put0)
	PUT(4, put1)
	PUT(8, put2)
	PUT(12, put3)
	ADDQ    $4, R12
edge4test:
	LEAQ 4(R12), AX
	CMPQ AX, m+72(FP)
	JLE  edge4
	JMP  edge1test
edge1:
	ROWPTR(0(R13)(R12*4), xs+16(FP), x+8(FP), SI)
	ROWPTR(0(R15)(R12*4), ys+32(FP), y+24(FP), DI)
	DOTS1(DI)
	MOVQ    out+0(FP), DI
	MOVQ    eids+64(FP), SI
	MOVBQZX acc+80(FP), DX
	PUT(0, put)
	INCQ    R12
edge1test:
	CMPQ R12, m+72(FP)
	JLT  edge1
	RET

#define PREFETCH4(off, i) \
	PREFETCHT0 off(SI)(i*1); PREFETCHT0 off(BX)(i*1); PREFETCHT0 off(R8)(i*1); PREFETCHT0 off(R10)(i*1)

// func dotRowsSSE(out, x *float32, xs int, idx *int32, m int, y *float32, n int):
// DI y, dotted by every row; R9 x, R15 xs, R11 the last full group's
// position. Before a group's dots, PREFETCH4 takes every 64-byte line of
// the 4n bytes (DX) at the four rows at position min(p+8, R11): offsets 0,
// 64, … below 4n, then the last byte, whose line the steps miss when the
// row is not 64-byte aligned.
TEXT ·dotRowsSSE(SB), NOSPLIT, $0-56
	MOVQ x+8(FP), R9
	MOVQ xs+16(FP), R15
	MOVQ idx+24(FP), R13
	MOVQ m+32(FP), R11
	ANDQ $-4, R11
	SUBQ $4, R11
	MOVQ y+40(FP), DI
	MOVQ n+48(FP), R14
	MOVQ R14, CX
	ANDQ $-8, CX
	LEAQ (R14*4), DX
	XORQ R12, R12
	JMP  row4test
row4:
	LEAQ    8(R12), AX
	CMPQ    AX, R11
	CMOVQGT R11, AX
	ROWS4(R13, AX, R15, R9, SI, BX, R8, R10)
	XORQ    AX, AX
prefetch:
	PREFETCH4(0, AX)
	ADDQ    $64, AX
	CMPQ    AX, DX
	JLT     prefetch
	PREFETCH4(-1, DX)
	ROWS4(R13, R12, R15, R9, SI, BX, R8, R10)
	DOTS4(DI, DI, DI, DI)
	MOVQ   out+0(FP), AX
	MOVUPS X6, (AX)(R12*4)
	ADDQ   $4, R12
row4test:
	CMPQ R12, R11
	JLE  row4
	JMP  row1test
row1:
	ROWPTR(0(R13)(R12*4), R15, R9, SI)
	DOTS1(DI)
	MOVQ  out+0(FP), AX
	MOVSS X6, (AX)(R12*4)
	INCQ  R12
row1test:
	CMPQ R12, m+32(FP)
	JLT  row1
	RET

// The mlp bodies: o ⊕= max(floor, t × W[:, :n]), one TEXT per fold, for one
// message (mlp*SSE) or two folded in turn (mlp2*SSE). A 16-column block
// keeps a message in four registers over all d1 rows of W (then a 4-column
// block in one): per row kk, t[kk] broadcast times W's block, MULPS, added
// into the message, ADDPS, as m = m + t[kk]·W[kk][f] from m = +0. The pair
// bodies load each block of W once for both messages.
//
// ReLU is MAXPS with the floor as destination, floor > m ? floor : m: that
// keeps a NaN m, as Go's max(m, 0) does, and differs from it only at
// m = −0, which a sum started at +0 never is (x + y rounds to −0 only when
// both are −0). Without ReLU the floor is −Inf, and m comes through whole.
// FOLD(m, acc) keeps Go's comparison: max is MAXPS with the message as
// destination, v > acc ? v : acc (MINPS likewise), then the result moves
// into acc; sum is ADDPS into acc, acc + v.
//
// Registers: DI o, SI t (t1), R12 t2 − t1 in bytes, DX W's block, CX d1,
// R8 ws in bytes, BX columns left, X14 the floor, X15 a temporary (the
// loaded o block in the fold).
// Each TEXT loads its arguments itself, where go vet's asmdecl checks them
// against the frame.
#define FOLD_SUM(m, acc) ADDPS m, acc
#define FOLD_MAX(m, acc) MAXPS acc, m; MOVAPS m, acc
#define FOLD_MIN(m, acc) MINPS acc, m; MOVAPS m, acc

// ACT_FOLD folds the activated message m into o at byte offset off.
#define ACT_FOLD(FOLD, m, off) \
	MOVAPS X14, X8; \
	MAXPS  m, X8; \
	MOVUPS off(DI), X15; \
	FOLD(X8, X15); \
	MOVUPS X15, off(DI)

// ACT_FOLD2 folds the activated messages m1, then m2, into o at off.
#define ACT_FOLD2(FOLD, m1, m2, off) \
	MOVAPS X14, X8; \
	MAXPS  m1, X8; \
	MOVAPS X14, X9; \
	MAXPS  m2, X9; \
	MOVUPS off(DI), X15; \
	FOLD(X8, X15); \
	FOLD(X9, X15); \
	MOVUPS X15, off(DI)

#define MLP_BODY(FOLD) \
	SHLQ   $2, R8; \
	SHUFPS $0, X14, X14; \
	CMPQ   BX, $16; \
	JLT    quad; \
block16: \
	XORPS  X0, X0; \
	XORPS  X1, X1; \
	XORPS  X2, X2; \
	XORPS  X3, X3; \
	MOVQ   SI, R9; \
	MOVQ   DX, R10; \
	MOVQ   CX, R11; \
row16: \
	MOVSS  (R9), X12; \
	SHUFPS $0, X12, X12; \
	MOVUPS (R10), X4; \
	MULPS  X12, X4; \
	ADDPS  X4, X0; \
	MOVUPS 16(R10), X5; \
	MULPS  X12, X5; \
	ADDPS  X5, X1; \
	MOVUPS 32(R10), X6; \
	MULPS  X12, X6; \
	ADDPS  X6, X2; \
	MOVUPS 48(R10), X7; \
	MULPS  X12, X7; \
	ADDPS  X7, X3; \
	ADDQ   $4, R9; \
	ADDQ   R8, R10; \
	DECQ   R11; \
	JNZ    row16; \
	ACT_FOLD(FOLD, X0, 0); \
	ACT_FOLD(FOLD, X1, 16); \
	ACT_FOLD(FOLD, X2, 32); \
	ACT_FOLD(FOLD, X3, 48); \
	ADDQ   $64, DI; \
	ADDQ   $64, DX; \
	SUBQ   $16, BX; \
	CMPQ   BX, $16; \
	JGE    block16; \
quad: \
	TESTQ  BX, BX; \
	JZ     done; \
block4: \
	XORPS  X0, X0; \
	MOVQ   SI, R9; \
	MOVQ   DX, R10; \
	MOVQ   CX, R11; \
row4: \
	MOVSS  (R9), X12; \
	SHUFPS $0, X12, X12; \
	MOVUPS (R10), X4; \
	MULPS  X12, X4; \
	ADDPS  X4, X0; \
	ADDQ   $4, R9; \
	ADDQ   R8, R10; \
	DECQ   R11; \
	JNZ    row4; \
	ACT_FOLD(FOLD, X0, 0); \
	ADDQ   $16, DI; \
	ADDQ   $16, DX; \
	SUBQ   $4, BX; \
	JNZ    block4; \
done: \
	RET

// MAC2 adds t1·w into m1 and t2·w into m2, w the W block at off(R10).
#define MAC2(off, w, m1, m2) \
	MOVUPS off(R10), w; \
	MOVAPS w, X15; \
	MULPS  X12, X15; \
	ADDPS  X15, m1; \
	MULPS  X13, w; \
	ADDPS  w, m2

#define MLP2_BODY(FOLD) \
	SHLQ   $2, R8; \
	SHUFPS $0, X14, X14; \
	SUBQ   SI, R12; \
	CMPQ   BX, $16; \
	JLT    quad; \
block16: \
	XORPS  X0, X0; \
	XORPS  X1, X1; \
	XORPS  X2, X2; \
	XORPS  X3, X3; \
	XORPS  X4, X4; \
	XORPS  X5, X5; \
	XORPS  X6, X6; \
	XORPS  X7, X7; \
	MOVQ   SI, R9; \
	MOVQ   DX, R10; \
	MOVQ   CX, R11; \
row16: \
	MOVSS  (R9), X12; \
	SHUFPS $0, X12, X12; \
	MOVSS  (R9)(R12*1), X13; \
	SHUFPS $0, X13, X13; \
	MAC2(0, X8, X0, X4); \
	MAC2(16, X9, X1, X5); \
	MAC2(32, X10, X2, X6); \
	MAC2(48, X11, X3, X7); \
	ADDQ   $4, R9; \
	ADDQ   R8, R10; \
	DECQ   R11; \
	JNZ    row16; \
	ACT_FOLD2(FOLD, X0, X4, 0); \
	ACT_FOLD2(FOLD, X1, X5, 16); \
	ACT_FOLD2(FOLD, X2, X6, 32); \
	ACT_FOLD2(FOLD, X3, X7, 48); \
	ADDQ   $64, DI; \
	ADDQ   $64, DX; \
	SUBQ   $16, BX; \
	CMPQ   BX, $16; \
	JGE    block16; \
quad: \
	TESTQ  BX, BX; \
	JZ     done; \
block4: \
	XORPS  X0, X0; \
	XORPS  X4, X4; \
	MOVQ   SI, R9; \
	MOVQ   DX, R10; \
	MOVQ   CX, R11; \
row4: \
	MOVSS  (R9), X12; \
	SHUFPS $0, X12, X12; \
	MOVSS  (R9)(R12*1), X13; \
	SHUFPS $0, X13, X13; \
	MAC2(0, X8, X0, X4); \
	ADDQ   $4, R9; \
	ADDQ   R8, R10; \
	DECQ   R11; \
	JNZ    row4; \
	ACT_FOLD2(FOLD, X0, X4, 0); \
	ADDQ   $16, DI; \
	ADDQ   $16, DX; \
	SUBQ   $4, BX; \
	JNZ    block4; \
done: \
	RET

// func mlpSumSSE(o, t, w *float32, d1, ws, n int, floor float32)
TEXT ·mlpSumSSE(SB), NOSPLIT, $0-52
	MOVQ  o+0(FP), DI
	MOVQ  t+8(FP), SI
	MOVQ  w+16(FP), DX
	MOVQ  d1+24(FP), CX
	MOVQ  ws+32(FP), R8
	MOVQ  n+40(FP), BX
	MOVSS floor+48(FP), X14
	MLP_BODY(FOLD_SUM)

// func mlpMaxSSE(o, t, w *float32, d1, ws, n int, floor float32)
TEXT ·mlpMaxSSE(SB), NOSPLIT, $0-52
	MOVQ  o+0(FP), DI
	MOVQ  t+8(FP), SI
	MOVQ  w+16(FP), DX
	MOVQ  d1+24(FP), CX
	MOVQ  ws+32(FP), R8
	MOVQ  n+40(FP), BX
	MOVSS floor+48(FP), X14
	MLP_BODY(FOLD_MAX)

// func mlpMinSSE(o, t, w *float32, d1, ws, n int, floor float32)
TEXT ·mlpMinSSE(SB), NOSPLIT, $0-52
	MOVQ  o+0(FP), DI
	MOVQ  t+8(FP), SI
	MOVQ  w+16(FP), DX
	MOVQ  d1+24(FP), CX
	MOVQ  ws+32(FP), R8
	MOVQ  n+40(FP), BX
	MOVSS floor+48(FP), X14
	MLP_BODY(FOLD_MIN)

// func mlp2SumSSE(o, t1, t2, w *float32, d1, ws, n int, floor float32)
TEXT ·mlp2SumSSE(SB), NOSPLIT, $0-60
	MOVQ  o+0(FP), DI
	MOVQ  t1+8(FP), SI
	MOVQ  t2+16(FP), R12
	MOVQ  w+24(FP), DX
	MOVQ  d1+32(FP), CX
	MOVQ  ws+40(FP), R8
	MOVQ  n+48(FP), BX
	MOVSS floor+56(FP), X14
	MLP2_BODY(FOLD_SUM)

// func mlp2MaxSSE(o, t1, t2, w *float32, d1, ws, n int, floor float32)
TEXT ·mlp2MaxSSE(SB), NOSPLIT, $0-60
	MOVQ  o+0(FP), DI
	MOVQ  t1+8(FP), SI
	MOVQ  t2+16(FP), R12
	MOVQ  w+24(FP), DX
	MOVQ  d1+32(FP), CX
	MOVQ  ws+40(FP), R8
	MOVQ  n+48(FP), BX
	MOVSS floor+56(FP), X14
	MLP2_BODY(FOLD_MAX)

// func mlp2MinSSE(o, t1, t2, w *float32, d1, ws, n int, floor float32)
TEXT ·mlp2MinSSE(SB), NOSPLIT, $0-60
	MOVQ  o+0(FP), DI
	MOVQ  t1+8(FP), SI
	MOVQ  t2+16(FP), R12
	MOVQ  w+24(FP), DX
	MOVQ  d1+32(FP), CX
	MOVQ  ws+40(FP), R8
	MOVQ  n+48(FP), BX
	MOVSS floor+56(FP), X14
	MLP2_BODY(FOLD_MIN)

// expc holds expShiftSumSSE's constants, each in four lanes, in Expf32's
// order: log2e, 0.5, ln2 hi and lo, the polynomial's c0…c5, 1, the largest
// argument the lanes take (expSSEMaxX), the underflow cut, and the exponent
// bias 127 as integers.
DATA expc<>+0(SB)/8, $0x3fb8aa3b3fb8aa3b
DATA expc<>+8(SB)/8, $0x3fb8aa3b3fb8aa3b
DATA expc<>+16(SB)/8, $0x3f0000003f000000
DATA expc<>+24(SB)/8, $0x3f0000003f000000
DATA expc<>+32(SB)/8, $0x3f3180003f318000
DATA expc<>+40(SB)/8, $0x3f3180003f318000
DATA expc<>+48(SB)/8, $0xb95e8083b95e8083
DATA expc<>+56(SB)/8, $0xb95e8083b95e8083
DATA expc<>+64(SB)/8, $0x3950696739506967
DATA expc<>+72(SB)/8, $0x3950696739506967
DATA expc<>+80(SB)/8, $0x3ab743ce3ab743ce
DATA expc<>+88(SB)/8, $0x3ab743ce3ab743ce
DATA expc<>+96(SB)/8, $0x3c0889083c088908
DATA expc<>+104(SB)/8, $0x3c0889083c088908
DATA expc<>+112(SB)/8, $0x3d2aa9c13d2aa9c1
DATA expc<>+120(SB)/8, $0x3d2aa9c13d2aa9c1
DATA expc<>+128(SB)/8, $0x3e2aaaaa3e2aaaaa
DATA expc<>+136(SB)/8, $0x3e2aaaaa3e2aaaaa
DATA expc<>+144(SB)/8, $0x3f0000003f000000
DATA expc<>+152(SB)/8, $0x3f0000003f000000
DATA expc<>+160(SB)/8, $0x3f8000003f800000
DATA expc<>+168(SB)/8, $0x3f8000003f800000
DATA expc<>+176(SB)/8, $0x42b0000042b00000
DATA expc<>+184(SB)/8, $0x42b0000042b00000
DATA expc<>+192(SB)/8, $0xc2ae0000c2ae0000
DATA expc<>+200(SB)/8, $0xc2ae0000c2ae0000
DATA expc<>+208(SB)/8, $0x0000007f0000007f
DATA expc<>+216(SB)/8, $0x0000007f0000007f
GLOBL expc<>(SB), RODATA|NOPTR, $224

// POLY steps p = p·r + c, c the constant at off(expc).
#define POLY(off) \
	MULPS  X6, X5; \
	MOVUPS expc<>+off(SB), X7; \
	ADDPS  X7, X5

// func expShiftSumSSE(s *float32, n int, shift, sum float32) (done int, total float32):
// Expf32's steps on four lanes x = s − shift, no fused multiply-add.
// floor(t) is int32(t), less 1 where float32(int32(t)) > t (CMPPS's all-ones
// lane is the integer −1 and, ANDed with 1.0, the float 1), and 2^k is k+127
// shifted into the exponent field. A group with a lane that is NaN or above
// expSSEMaxX stops the loop before it is stored; lanes below −87 are zeroed.
// Each group's four results add into the sum in lane 0 in ascending order.
TEXT ·expShiftSumSSE(SB), NOSPLIT, $0-36
	MOVQ   s+0(FP), DI
	MOVQ   n+8(FP), CX
	MOVSS  shift+16(FP), X8
	SHUFPS $0, X8, X8
	MOVSS  sum+20(FP), X0
	MOVUPS expc<>+0(SB), X9     // log2e
	MOVUPS expc<>+16(SB), X10   // 0.5
	MOVUPS expc<>+32(SB), X11   // ln2 hi
	MOVUPS expc<>+48(SB), X12   // ln2 lo
	MOVUPS expc<>+160(SB), X13  // 1
	MOVUPS expc<>+176(SB), X14  // expSSEMaxX
	MOVUPS expc<>+192(SB), X15  // the underflow cut
	XORQ   AX, AX
exploop:
	MOVUPS   (DI)(AX*4), X1
	SUBPS    X8, X1             // x = s − shift
	MOVAPS   X1, X2
	CMPPS    X14, X2, $6        // !(x <= expSSEMaxX): NaN or too large
	MOVMSKPS X2, DX
	TESTL    DX, DX
	JNZ      expdone
	MOVAPS   X1, X2
	MULPS    X9, X2
	ADDPS    X10, X2            // t = log2e·x + 0.5
	CVTTPS2PL X2, X3            // int32(t)
	CVTPL2PS X3, X4             // f = float32(int32(t))
	CMPPS    X4, X2, $1         // t < f: all ones
	PADDL    X2, X3             // k = int32(t) − 1 there
	ANDPS    X13, X2
	SUBPS    X2, X4             // kf = f − 1 there
	MOVAPS   X4, X2
	MULPS    X11, X2            // kf·ln2hi
	MOVAPS   X1, X6
	SUBPS    X2, X6             // r = x − kf·ln2hi
	MULPS    X12, X4            // kf·ln2lo
	SUBPS    X4, X6             // r −= kf·ln2lo
	MOVUPS   expc<>+64(SB), X5  // p = c0
	POLY(80)
	POLY(96)
	POLY(112)
	POLY(128)
	POLY(144)
	MOVAPS   X6, X7
	MULPS    X6, X7             // r·r
	MULPS    X5, X7             // r·r·p
	ADDPS    X6, X7             // + r
	ADDPS    X13, X7            // z = … + 1
	MOVUPS   expc<>+208(SB), X2
	PADDL    X2, X3
	PSLLL    $23, X3            // 2^k
	MULPS    X3, X7             // e = z·2^k
	CMPPS    X15, X1, $1        // x < −87: all ones
	ANDNPS   X7, X1             // e, or +0 there
	MOVUPS   X1, (DI)(AX*4)
	ADDSS    X1, X0
	SHUFPS   $0x39, X1, X1      // rotate lane 1 into lane 0
	ADDSS    X1, X0
	SHUFPS   $0x39, X1, X1
	ADDSS    X1, X0
	SHUFPS   $0x39, X1, X1
	ADDSS    X1, X0
	ADDQ     $4, AX
	CMPQ     AX, CX
	JLT      exploop
expdone:
	MOVQ     AX, done+24(FP)
	MOVSS    X0, total+32(FP)
	RET

// BMAX(x, m, t) sets each lane of m to the larger of it and x's, as signed
// integers (over lanes biased by 2^31, that is the unsigned order): t = the
// all-ones lanes where x > m, then m ^= (x ^ m) & t. x and t are clobbered.
#define BMAX(x, m, t) \
	MOVO    x, t; \
	PCMPGTL m, t; \
	PXOR    m, x; \
	PAND    t, x; \
	PXOR    x, m

// func maxUint32SSE(a *int32, n int) uint32: X15 holds the bias 2^31 in
// every lane, which is also the biased 0 the maxima X0–X3 start at. The
// four registers combine, then the four lanes of X0, then the bias comes
// off.
TEXT ·maxUint32SSE(SB), NOSPLIT, $0-20
	MOVQ    a+0(FP), SI
	MOVQ    n+8(FP), CX
	PCMPEQL X15, X15
	PSLLL   $31, X15
	MOVO    X15, X0
	MOVO    X15, X1
	MOVO    X15, X2
	MOVO    X15, X3
	XORQ    AX, AX
maxloop:
	MOVOU   (SI)(AX*4), X4
	MOVOU   16(SI)(AX*4), X5
	MOVOU   32(SI)(AX*4), X6
	MOVOU   48(SI)(AX*4), X7
	PXOR    X15, X4
	PXOR    X15, X5
	PXOR    X15, X6
	PXOR    X15, X7
	BMAX(X4, X0, X8)
	BMAX(X5, X1, X9)
	BMAX(X6, X2, X10)
	BMAX(X7, X3, X11)
	ADDQ    $16, AX
	CMPQ    AX, CX
	JLT     maxloop
	BMAX(X1, X0, X8)
	BMAX(X3, X2, X9)
	BMAX(X2, X0, X8)
	PSHUFD  $0x4e, X0, X1       // lanes 2, 3, 0, 1
	BMAX(X1, X0, X8)
	PSHUFD  $0xb1, X0, X1       // lanes 1, 0, 3, 2
	BMAX(X1, X0, X8)
	PXOR    X15, X0
	MOVQ    X0, AX
	MOVL    AX, ret+16(FP)
	RET
