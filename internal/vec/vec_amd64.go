//go:build !race

package vec

// sse selects vec_amd64.s: each body does the first n elements, n a positive
// multiple of 4 (the dot walks take any n > 0 and m > 0 positions, every
// row and edge id already proven in range; expShiftSumSSE returns how many
// of its n elements it did; the mlp bodies take d1 > 0 rows of w, ws floats
// apart, and the ReLU floor; maxUint32SSE takes n a positive multiple of
// 16; the row walks *AVX2 take m > 0 indices and n a positive multiple of 8
// columns, every row already proven in range).
const sse = true

// avx2 selects the row walks' AVX2 bodies, set once from CPUID and XCR0:
// the CPU has AVX and AVX2 (leaf 1 ECX bit 28, leaf 7 EBX bit 5) and the OS
// saves the XMM and YMM state (OSXSAVE, leaf 1 ECX bit 27; XCR0 bits 1 and
// 2). Tests switch it off to run the SSE per-group loops on an AVX2 host.
var avx2 = hasAVX2()

func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx || xgetbv0()&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of XCR0; call it only where OSXSAVE is set.
func xgetbv0() uint32

//go:noescape
func add4SSE(o, a, b, c, d *float32, n int)

//go:noescape
func axpySSE(o, a *float32, wa float32, n int)

//go:noescape
func axpy2SSE(o, a, b *float32, wa, wb float32, n int)

//go:noescape
func axpy4SSE(o, a, b, c, d *float32, wa, wb, wc, wd float32, n int)

//go:noescape
func dotEdgesSSE(out, x *float32, xs int, y *float32, ys, n int, cols, rows, eids *int32, m int, acc bool)

//go:noescape
func dotRowsSSE(out, x *float32, xs int, idx *int32, m int, y *float32, n int)

//go:noescape
func expShiftSumSSE(s *float32, n int, shift, sum float32) (done int, total float32)

//go:noescape
func mlpSumSSE(o, t, w *float32, d1, ws, n int, floor float32)

//go:noescape
func mlpMaxSSE(o, t, w *float32, d1, ws, n int, floor float32)

//go:noescape
func mlpMinSSE(o, t, w *float32, d1, ws, n int, floor float32)

//go:noescape
func mlp2SumSSE(o, t1, t2, w *float32, d1, ws, n int, floor float32)

//go:noescape
func mlp2MaxSSE(o, t1, t2, w *float32, d1, ws, n int, floor float32)

//go:noescape
func mlp2MinSSE(o, t1, t2, w *float32, d1, ws, n int, floor float32)

//go:noescape
func maxUint32SSE(a *int32, n int) uint32

//go:noescape
func sumRowsAVX2(o, data *float32, stride int, idx *int32, m, n int)

//go:noescape
func scaledSumRowsAVX2(o, data *float32, stride int, idx *int32, m, n int, eid *int32, w *float32)
