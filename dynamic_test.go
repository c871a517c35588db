package featgraph_test

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"featgraph"
)

// TestDynamicGraphAPISurface drives the exported mutable-graph stack end
// to end: NewMutableGraph from a static graph, fluent Mutator commits,
// snapshot pinning across versions, durable reopen via OpenMutableGraph,
// reclaim-hook observation (once per drained version), and live serving
// over the mutating graph.
func TestDynamicGraphAPISurface(t *testing.T) {
	g, feats, rng := apiGraph(t, 200, 4, 8)
	dir := filepath.Join(t.TempDir(), "store")

	var mu sync.Mutex
	reclaimed := map[uint64]int{}
	m, err := featgraph.NewMutableGraph(g,
		featgraph.WithDeltaDir(dir),
		featgraph.WithCompactRows(64),
		featgraph.WithReclaimHook(func(v uint64) {
			mu.Lock()
			reclaimed[v]++
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatalf("NewMutableGraph: %v", err)
	}
	if m.Version() != 0 || m.NumVertices() != 200 {
		t.Fatalf("fresh mutable graph: v%d, %d vertices", m.Version(), m.NumVertices())
	}
	e0 := m.NumEdges()

	// Pin version 0, mutate past it, and check the pin stays consistent.
	snap0, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	ver, err := m.Mutate().Insert(7, 3, 1.5).Insert(9, 3, 0.5).Commit()
	if err != nil || ver != 1 {
		t.Fatalf("first commit: v=%d err=%v", ver, err)
	}
	if _, err := m.Mutate().Insert(7, 3, 2).Commit(); err == nil {
		t.Fatal("duplicate insert must be rejected")
	}
	ver, err = m.ApplyDelta(featgraph.DeltaBatch{Delete: []featgraph.EdgeDelta{{Src: 7, Dst: 3}}})
	if err != nil || ver != 2 {
		t.Fatalf("delete commit: v=%d err=%v", ver, err)
	}
	if m.NumEdges() != e0+1 {
		t.Fatalf("edge count %d after +2-1, want %d", m.NumEdges(), e0+1)
	}
	if snap0.Version() != 0 || snap0.NumEdges() != e0 {
		t.Fatalf("pinned v0 drifted: v%d, %d edges", snap0.Version(), snap0.NumEdges())
	}
	snap0.Release()

	// PinGraph wraps the serving snapshot as a read-only Graph.
	pg, pver, release, err := m.PinGraph()
	if err != nil {
		t.Fatalf("PinGraph: %v", err)
	}
	if pg.NumVertices() != 200 || pver > 2 {
		t.Fatalf("pinned graph: %d vertices at v%d", pg.NumVertices(), pver)
	}
	release()

	// Serving over the live graph, with the answering version reported.
	model := featgraph.ServeModel{Layers: []featgraph.ServeLayer{
		serveLayer(rng, 8, 6), serveLayer(rng, 6, 4),
	}}
	b, err := featgraph.NewDynamicBatcher(m, feats, model, featgraph.NewServeConfig(
		featgraph.WithFanouts(3, 3),
		featgraph.WithBatchWindow(time.Millisecond),
		featgraph.WithServeThreads(2),
	))
	if err != nil {
		t.Fatalf("NewDynamicBatcher: %v", err)
	}
	res, err := b.Serve(context.Background(), featgraph.ServeRequest{Seeds: []int32{1, 2}})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if res.Out.Dim(0) != 2 || res.Out.Dim(1) != 4 {
		t.Fatalf("output shape %v, want [2 4]", res.Out.Shape())
	}
	if res.Info.GraphVersion > 2 {
		t.Fatalf("served version %d, engine at 2", res.Info.GraphVersion)
	}
	// Commit mid-serving and keep serving.
	if _, err := m.Mutate().Insert(11, 5, 1).Commit(); err != nil {
		t.Fatalf("commit while serving: %v", err)
	}
	if _, err := b.Serve(context.Background(), featgraph.ServeRequest{Seeds: []int32{5}}); err != nil {
		t.Fatalf("Serve after commit: %v", err)
	}
	b.Close()

	// Close, then recover: the reopened graph resumes at version 3.
	edges := m.NumEdges()
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := m.ApplyDelta(featgraph.DeltaBatch{Insert: []featgraph.EdgeDelta{{Src: 1, Dst: 2}}}); !errors.Is(err, featgraph.ErrGraphClosed) {
		t.Fatalf("commit after Close: %v, want ErrGraphClosed", err)
	}
	re, err := featgraph.OpenMutableGraph(dir)
	if err != nil {
		t.Fatalf("OpenMutableGraph: %v", err)
	}
	defer re.Close()
	if re.Version() != 3 || re.NumEdges() != edges {
		t.Fatalf("recovered v%d with %d edges, want v3 with %d", re.Version(), re.NumEdges(), edges)
	}
	if _, err := re.Mutate().Delete(9, 3).Commit(); err != nil {
		t.Fatalf("post-recovery commit: %v", err)
	}

	// Every version of the first engine (0..3) drains once Close has
	// dropped the engine's references, and the hook fires once for each.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(reclaimed)
		mu.Unlock()
		if n >= 4 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for v := uint64(0); v <= 3; v++ {
		if reclaimed[v] != 1 {
			t.Fatalf("reclaim hook fired %d times for version %d, want once (all: %v)", reclaimed[v], v, reclaimed)
		}
	}
}
