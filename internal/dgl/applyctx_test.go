package dgl

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"featgraph/internal/autodiff"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// Concurrent ApplyCtx calls on one shared Graph, each with its own op, tape,
// context (distinct deadlines — some pre-expired) and RunInfo. The call must
// be clean under -race, cancel only the call whose context expired, and
// attribute stats per call.
func TestApplyCtxConcurrentDistinctDeadlines(t *testing.T) {
	const n, d, workers = 120, 8, 8
	adj := sparse.Random(rand.New(rand.NewSource(5)), n, n, 6)
	g, err := New(adj, Config{Backend: FeatGraph, NumThreads: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Each worker owns an op: compiled kernels stage inputs into op-owned
	// buffers, so ops are per-caller state while the Graph (adjacency, plan
	// cache, config) is the shared read-only part.
	ops := make([]*CopyAggOp, workers)
	for i := range ops {
		if ops[i], err = g.NewCopyMean(d); err != nil {
			t.Fatal(err)
		}
	}

	x := tensor.New(n, d)
	x.FillGlorot(rand.New(rand.NewSource(6)))

	var wg sync.WaitGroup
	aborted := make([]bool, workers)
	infos := make([]RunInfo, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Odd workers get an already-expired deadline: their call must
			// abort with *AbortError wrapping context.DeadlineExceeded while
			// even workers' calls proceed untouched.
			ctx := context.Background()
			if w%2 == 1 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithDeadline(ctx, time.Now().Add(-time.Second))
				defer cancel()
			}
			defer func() {
				if r := recover(); r != nil {
					ae, ok := r.(*AbortError)
					if !ok {
						panic(r)
					}
					if !errors.Is(ae.Err, context.DeadlineExceeded) {
						t.Errorf("worker %d: abort cause = %v, want deadline", w, ae.Err)
					}
					aborted[w] = true
				}
			}()
			labels := make([]int, n)
			mask := make([]bool, n)
			for i := range mask {
				mask[i] = true
			}
			for iter := 0; iter < 5; iter++ {
				tp := autodiff.NewTape()
				xv := tp.Input(x)
				out := ops[w].ApplyCtx(ctx, tp, xv, &infos[w])
				loss := tp.CrossEntropyLoss(out, labels, mask)
				if err := tp.Backward(loss); err != nil {
					t.Errorf("worker %d: backward: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	for w := 0; w < workers; w++ {
		if w%2 == 1 && !aborted[w] {
			t.Errorf("worker %d had an expired deadline but did not abort", w)
		}
		if w%2 == 0 {
			if aborted[w] {
				t.Errorf("worker %d aborted without an expired deadline", w)
			}
			// 5 iterations × (forward + backward) kernel launches.
			if infos[w].Runs != 10 {
				t.Errorf("worker %d RunInfo.Runs = %d, want 10", w, infos[w].Runs)
			}
		}
	}
	// Kernel runs report to the caller's RunInfo, never to the graph.
	if g.SimCycles != 0 || g.MsgBytes != 0 {
		t.Errorf("ApplyCtx mutated graph stats: cycles=%d msgbytes=%d", g.SimCycles, g.MsgBytes)
	}
}
