package vec

import "unsafe"

// CacheLines returns a zeroed slice of n elements that starts on a 64-byte
// boundary and whose cache lines hold nothing else: per-worker scratch that
// one worker writes in its inner loop and another worker's writes to its
// own cannot false-share. It allocates n rounded up to 16 elements, plus
// the 16 it may skip to reach the boundary.
func CacheLines[T int32 | float32](n int) []T {
	const line = 64 / 4
	buf := make([]T, (n+line-1)/line*line+line)
	off := int(-uintptr(unsafe.Pointer(unsafe.SliceData(buf)))%64) / 4
	return buf[off : off+n : off+n]
}
