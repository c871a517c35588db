package nn

import (
	"context"
	"math/rand"
	"testing"

	"featgraph/internal/autodiff"
	"featgraph/internal/core"
	"featgraph/internal/dgl"
	"featgraph/internal/graphgen"
	"featgraph/internal/tensor"
)

func dataset(t *testing.T, seed int64) *graphgen.Classified {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return graphgen.PlantedCommunities(rng, 200, 3, 6, 2, 16)
}

func buildModel(t *testing.T, name string, g *dgl.Graph, in, hidden, out int, seed int64) Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var m Model
	var err error
	switch name {
	case "gcn":
		m, err = NewGCN(g, in, hidden, out, rng)
	case "graphsage":
		m, err = NewGraphSage(g, in, hidden, out, rng)
	case "gat":
		m, err = NewGAT(g, in, hidden, out, rng)
	default:
		t.Fatalf("unknown model %s", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// evaluate is EvaluateCtx under a background context; an abort fails the
// test.
func evaluate(t *testing.T, m Model, x *tensor.Tensor, labels []int, mask []bool) float64 {
	t.Helper()
	acc, err := EvaluateCtx(context.Background(), m, x, labels, mask)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

func TestAdamDecreasesSimpleLoss(t *testing.T) {
	// Minimize ||w||² via Adam on a fake gradient = 2w.
	w := tensor.FromSlice([]float32{3, -4}, 2)
	opt := NewAdam(0.1)
	norm := func() float64 { return float64(w.Data()[0]*w.Data()[0] + w.Data()[1]*w.Data()[1]) }
	start := norm()
	for i := 0; i < 200; i++ {
		tp := autodiff.NewTape()
		v := tp.Param(w)
		g := autodiff.EnsureGrad(v)
		g.Data()[0] = 2 * w.Data()[0]
		g.Data()[1] = 2 * w.Data()[1]
		opt.Step([]*autodiff.Var{v})
	}
	if norm() > start/100 {
		t.Fatalf("Adam failed to shrink ||w||²: %v → %v", start, norm())
	}
}

func TestAdamSkipsGradlessVars(t *testing.T) {
	w := tensor.FromSlice([]float32{1}, 1)
	opt := NewAdam(0.1)
	tp := autodiff.NewTape()
	opt.Step([]*autodiff.Var{tp.Param(w)})
	if w.Data()[0] != 1 {
		t.Fatal("param without grad must not move")
	}
}

func TestModelsTrainToHighAccuracy(t *testing.T) {
	ds := dataset(t, 1)
	for _, name := range []string{"gcn", "graphsage", "gat"} {
		g, err := dgl.New(ds.Adj, dgl.Config{Backend: dgl.FeatGraph, Target: core.CPU})
		if err != nil {
			t.Fatal(err)
		}
		m := buildModel(t, name, g, 16, 16, ds.NumClasses, 42)
		opt := NewAdam(0.01)
		var loss0, lossN float64
		for epoch := 0; epoch < 60; epoch++ {
			loss, _, err := TrainEpochCtx(context.Background(), m, ds.Features, ds.Labels, ds.TrainMask, opt)
			if err != nil {
				t.Fatal(err)
			}
			if epoch == 0 {
				loss0 = loss
			}
			lossN = loss
		}
		if lossN >= loss0 {
			t.Errorf("%s: loss did not decrease (%.4f → %.4f)", name, loss0, lossN)
		}
		acc := evaluate(t, m, ds.Features, ds.Labels, ds.TestMask)
		if acc < 0.75 {
			t.Errorf("%s: test accuracy %.3f too low", name, acc)
		}
	}
}

func TestBackendsReachSameAccuracy(t *testing.T) {
	// The paper's §V-E sanity check: FeatGraph is a performance backend,
	// so accuracy must match the baseline backend. With identical seeds
	// the two runs are numerically near-identical.
	ds := dataset(t, 2)
	for _, name := range []string{"gcn", "graphsage", "gat"} {
		accs := map[dgl.Backend]float64{}
		losses := map[dgl.Backend][]float64{}
		for _, backend := range []dgl.Backend{dgl.Naive, dgl.FeatGraph} {
			g, err := dgl.New(ds.Adj, dgl.Config{Backend: backend, Target: core.CPU})
			if err != nil {
				t.Fatal(err)
			}
			m := buildModel(t, name, g, 16, 16, ds.NumClasses, 7)
			opt := NewAdam(0.01)
			for epoch := 0; epoch < 30; epoch++ {
				loss, _, err := TrainEpochCtx(context.Background(), m, ds.Features, ds.Labels, ds.TrainMask, opt)
				if err != nil {
					t.Fatal(err)
				}
				losses[backend] = append(losses[backend], loss)
			}
			accs[backend] = evaluate(t, m, ds.Features, ds.Labels, ds.TestMask)
		}
		for e := range losses[dgl.Naive] {
			diff := losses[dgl.Naive][e] - losses[dgl.FeatGraph][e]
			if diff > 1e-2 || diff < -1e-2 {
				t.Errorf("%s: epoch %d losses diverge: %.5f vs %.5f", name, e, losses[dgl.Naive][e], losses[dgl.FeatGraph][e])
				break
			}
		}
		diff := accs[dgl.Naive] - accs[dgl.FeatGraph]
		if diff > 0.03 || diff < -0.03 {
			t.Errorf("%s: accuracy mismatch naive %.3f vs featgraph %.3f", name, accs[dgl.Naive], accs[dgl.FeatGraph])
		}
	}
}

func TestModelNamesAndParams(t *testing.T) {
	ds := dataset(t, 3)
	g, err := dgl.New(ds.Adj, dgl.Config{Backend: dgl.Naive, Target: core.CPU})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{"gcn": 2, "graphsage": 4, "gat": 2}
	for name, want := range counts {
		m := buildModel(t, name, g, 16, 8, ds.NumClasses, 1)
		if m.Name() != name {
			t.Errorf("Name = %q, want %q", m.Name(), name)
		}
		if len(m.Params()) != want {
			t.Errorf("%s: %d params, want %d", name, len(m.Params()), want)
		}
	}
}

func TestGATTrainsOnGPUBackend(t *testing.T) {
	// GAT exercises SpMM and SDDMM together (the paper's point about
	// gradient duality); make sure a GPU-target epoch runs end to end and
	// charges cycles.
	ds := dataset(t, 4)
	g, err := dgl.New(ds.Adj, dgl.Config{Backend: dgl.FeatGraph, Target: core.GPU})
	if err != nil {
		t.Fatal(err)
	}
	m := buildModel(t, "gat", g, 16, 8, ds.NumClasses, 5)
	opt := NewAdam(0.01)
	_, info, err := TrainEpochCtx(context.Background(), m, ds.Features, ds.Labels, ds.TrainMask, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The sparse kernels report to the epoch's RunInfo, the dense layers
	// to the graph; an epoch's GPU total is their sum.
	if info.SimCycles == 0 || g.SimCycles == 0 {
		t.Fatalf("GPU training charged kernel cycles %d, dense cycles %d; want both > 0", info.SimCycles, g.SimCycles)
	}
}

func TestMultiHeadGATTrains(t *testing.T) {
	ds := dataset(t, 5)
	for _, backend := range []dgl.Backend{dgl.Naive, dgl.FeatGraph} {
		g, err := dgl.New(ds.Adj, dgl.Config{Backend: backend, Target: core.CPU})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(21))
		m, err := NewMultiHeadGAT(g, 16, 8, ds.NumClasses, 4, rng)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != "gat-multihead" || len(m.Params()) != 2 {
			t.Fatal("metadata wrong")
		}
		opt := NewAdam(0.01)
		var first, last float64
		for e := 0; e < 40; e++ {
			loss, _, err := TrainEpochCtx(context.Background(), m, ds.Features, ds.Labels, ds.TrainMask, opt)
			if err != nil {
				t.Fatal(err)
			}
			if e == 0 {
				first = loss
			}
			last = loss
		}
		if last >= first {
			t.Errorf("%v: loss did not decrease (%.4f → %.4f)", backend, first, last)
		}
		if acc := evaluate(t, m, ds.Features, ds.Labels, ds.TestMask); acc < 0.7 {
			t.Errorf("%v: accuracy %.3f too low", backend, acc)
		}
	}
}

func TestMultiHeadGATBackendsAgree(t *testing.T) {
	ds := dataset(t, 6)
	losses := map[dgl.Backend]float64{}
	for _, backend := range []dgl.Backend{dgl.Naive, dgl.FeatGraph} {
		g, err := dgl.New(ds.Adj, dgl.Config{Backend: backend, Target: core.CPU})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMultiHeadGAT(g, 16, 8, ds.NumClasses, 2, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		opt := NewAdam(0.01)
		var loss float64
		for e := 0; e < 10; e++ {
			loss, _, err = TrainEpochCtx(context.Background(), m, ds.Features, ds.Labels, ds.TrainMask, opt)
			if err != nil {
				t.Fatal(err)
			}
		}
		losses[backend] = loss
	}
	diff := losses[dgl.Naive] - losses[dgl.FeatGraph]
	if diff > 1e-2 || diff < -1e-2 {
		t.Fatalf("backends diverge: %.5f vs %.5f", losses[dgl.Naive], losses[dgl.FeatGraph])
	}
}

func TestMultiHeadGATRejectsZeroHeads(t *testing.T) {
	ds := dataset(t, 7)
	g, err := dgl.New(ds.Adj, dgl.Config{Backend: dgl.Naive, Target: core.CPU})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMultiHeadGAT(g, 16, 8, 3, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("0 heads should error")
	}
}
