package harness

import (
	"sync"
	"time"
)

// Triad measures sustained memory bandwidth with the STREAM triad
// a[i] = b[i] + s*c[i] over three float32 arrays of elems elements each,
// split across threads goroutines, and returns the best of passes in
// GB/s. It counts 12 bytes per element (two reads and one write; the
// write-allocate read is not counted, as in STREAM).
func Triad(elems, threads, passes int) float64 {
	a, b, c := make([]float32, elems), make([]float32, elems), make([]float32, elems)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	best := time.Duration(0)
	for p := 0; p <= passes; p++ { // pass 0 faults the pages in and is not timed
		start := time.Now()
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			lo, hi := t*elems/threads, (t+1)*elems/threads
			wg.Add(1)
			go func() {
				defer wg.Done()
				aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range aa {
					aa[i] = bb[i] + 3*cc[i]
				}
			}()
		}
		wg.Wait()
		if d := time.Since(start); p > 0 && (best == 0 || d < best) {
			best = d
		}
	}
	return 12 * float64(elems) / best.Seconds() / 1e9
}
