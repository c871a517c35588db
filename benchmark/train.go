package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"featgraph/benchmark/harness"
	"featgraph/internal/autodiff"
	"featgraph/internal/core"
	"featgraph/internal/dgl"
	"featgraph/internal/graphgen"
	"featgraph/internal/nn"
	"featgraph/internal/tensor"
)

// train_fullgraph: full-graph GCN and GAT training through dgl + nn +
// autodiff + tensor on a planted-community graph.

type trainParams struct {
	n, classes, inDeg, outDeg int
	d, hidden                 int
}

func trainParamsFor(smoke bool) trainParams {
	if smoke {
		return trainParams{n: 600, classes: 8, inDeg: 12, outDeg: 3, d: 32, hidden: 32}
	}
	// The issue's n=16000 gives 13 GCN and 10 GAT epochs in a 6 s slice on
	// two cores; it asks for n to shrink until a slice holds 20.
	return trainParams{n: 8000, classes: 16, inDeg: 60, outDeg: 15, d: 64, hidden: 64}
}

const (
	trainLR       = 0.01
	trainMinAcc   = 0.9
	warmupSettled = 3 // epochs to run after the plan cache stops missing
)

type trainedModel struct {
	name      string
	x         *tensor.Tensor // input features
	g         *dgl.Graph
	m         nn.Model
	opt       *nn.Adam
	firstLoss float64
	lastLoss  float64
	runs      int // kernel launches of the last epoch
}

func (tm *trainedModel) epoch(ctx context.Context, ds *graphgen.Classified) error {
	loss, info, err := nn.TrainEpochCtx(ctx, tm.m, tm.x, ds.Labels, ds.TrainMask, tm.opt)
	if err != nil {
		return err
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return fmt.Errorf("%s loss is %v", tm.name, loss)
	}
	tm.lastLoss, tm.runs = loss, info.Runs
	return nil
}

func runTrain(r *Run) error {
	p := trainParamsFor(r.Smoke)
	ds := graphgen.PlantedCommunities(r.rng(1), p.n, p.classes, p.inDeg, p.outDeg, p.d)
	// nn.GCN aggregates by sum, twice, so unit-scale features give logits in
	// the thousands; the softmax saturates, float32 gradients go subnormal,
	// and epoch time then follows the loss trajectory instead of the code (a
	// probe saw 115 ms grow to 410 ms as the loss reached 0). The GCN
	// therefore trains on the features scaled by 1/degree², which keeps it in
	// normal range throughout. The GAT's attention normalises its sums; it
	// trains on the features as generated.
	deg := float32(p.inDeg + p.outDeg)
	inputs := map[string]*tensor.Tensor{"gat": ds.Features, "gcn": tensor.Scale(tensor.New(p.n, p.d), ds.Features, 1/(deg*deg))}
	ctx := context.Background()

	build := func(name string, seed int64) (*trainedModel, error) {
		g, err := dgl.New(ds.Adj, dgl.Config{Backend: dgl.FeatGraph, Target: core.CPU, NumThreads: r.Threads})
		if err != nil {
			return nil, err
		}
		tm := &trainedModel{name: name, x: inputs[name], g: g, opt: nn.NewAdam(trainLR)}
		if name == "gcn" {
			tm.m, err = nn.NewGCN(g, p.d, p.hidden, p.classes, r.rng(seed))
		} else {
			tm.m, err = nn.NewGAT(g, p.d, p.hidden, p.classes, r.rng(seed))
		}
		if err != nil {
			return nil, err
		}
		// Warm up until the plan cache has stopped missing, then a few more.
		for settled, misses := 0, uint64(math.MaxUint64); settled < warmupSettled; {
			if err := tm.epoch(ctx, ds); err != nil {
				return nil, err
			}
			if tm.firstLoss == 0 {
				tm.firstLoss = tm.lastLoss
			}
			if now := g.Stats().Misses; now != misses {
				misses, settled = now, 0
			} else {
				settled++
			}
		}
		return tm, nil
	}
	// Each set-up is a pair of trained models; all pairs stay alive, and each
	// timed section visits every pair once.
	states, err := repeatSetup(r, func() ([]*trainedModel, error) {
		gcn, err := build("gcn", 2)
		if err != nil {
			return nil, err
		}
		gat, err := build("gat", 3)
		if err != nil {
			return nil, err
		}
		return []*trainedModel{gcn, gat}, nil
	}, nil)
	// Every graph wraps the one adjacency, so one call drops all their plans.
	defer dgl.InvalidateTopology(ds.Adj.Identity(), ds.Adj.Version())
	if err != nil {
		return err
	}

	missesBefore := totalMisses(states)
	r.primarySpan = "nn.TrainEpochCtx.gcn"
	err = r.withTrace(func(traced bool) (float64, error) {
		epochMs, inferMs := make([]series, 2), make([]series, 2)
		var allocs, bytes uint64
		var pause time.Duration
		for _, models := range states {
			var epochErr error
			a, b, p := memDelta(func() {
				for i, tm := range models {
					var ms []float64
					if ms, epochErr = r.passes(r.visit(0.4), 2, "nn.TrainEpochCtx."+tm.name, "nn", func() error { return tm.epoch(ctx, ds) }); epochErr != nil {
						return
					}
					epochMs[i] = append(epochMs[i], ms)
				}
			})
			if epochErr != nil {
				return 0, epochErr
			}
			allocs, bytes, pause = allocs+a, bytes+b, pause+p
			for i, tm := range models {
				ms, err := r.passes(r.visit(0.1), 2, "nn.InferCtx."+tm.name, "nn", func() error {
					_, _, err := nn.InferCtx(ctx, tm.m, tm.x)
					return err
				})
				if err != nil {
					return 0, err
				}
				inferMs[i] = append(inferMs[i], ms)
			}
		}
		for i, name := range []string{"gcn", "gat"} {
			if traced {
				inferMs[i].record(r.layer, "nn."+name+"_infer_ms", "ms", "")
				continue
			}
			v := epochMs[i].record(r.e2e, fmt.Sprintf("op%d_ms", i+1), "ms", name+" epoch")
			r.setLayer("nn."+name+"_epoch_ms", "ms", v)
			inferMs[i].record(r.e2e, fmt.Sprintf("op%d_ms", i+3), "ms", name+" inference")
		}
		if !traced {
			epochs := float64(len(epochMs[0].all()) + len(epochMs[1].all()))
			r.setLayer("train.allocs_per_epoch", "count", float64(allocs)/epochs)
			r.setLayer("train.mb_per_epoch", "MiB", float64(bytes)/(1<<20)/epochs)
			r.setLayer("train.gc_pause_ms_per_epoch", "ms", harness.Ms(pause)/epochs)
		}
		return epochMs[0].value(), nil
	})
	if err != nil {
		return err
	}

	// Checks: every model learned, and the steady state compiled nothing.
	var hits uint64
	for i, models := range states {
		for _, tm := range models {
			r.attempted++
			if !(tm.lastLoss < tm.firstLoss) {
				r.fail("%s (set-up %d) loss did not decrease: first %.6g, last %.6g", tm.name, i, tm.firstLoss, tm.lastLoss)
			}
			r.attempted++
			acc, err := nn.EvaluateCtx(ctx, tm.m, tm.x, ds.Labels, ds.TestMask)
			if err != nil || !(acc >= trainMinAcc) {
				r.fail("%s (set-up %d) test accuracy %.4f (err %v), want >= %.2f", tm.name, i, acc, err, trainMinAcc)
			}
			hits += tm.g.Stats().Hits
		}
	}
	r.attempted++
	misses := totalMisses(states)
	if misses != missesBefore {
		r.fail("plan cache missed %d times after warm-up", misses-missesBefore)
	}
	if !r.trace {
		return nil
	}
	last := states[len(states)-1]
	r.setLayer("dgl.plan_hits", "count", float64(hits))
	r.setLayer("dgl.plan_misses", "count", float64(misses))
	r.setLayer("dgl.kernel_runs_per_epoch", "count", float64(last[0].runs+last[1].runs)/2)
	return probeTrain(r, p, last[0].g, ds)
}

func totalMisses(states [][]*trainedModel) (n uint64) {
	for _, models := range states {
		for _, tm := range models {
			n += tm.g.Stats().Misses
		}
	}
	return n
}

// probeTrain times the pieces an epoch is made of, on the model's shapes:
// one sparse aggregation forward, fused attention forward and backward, and
// the dense matmuls of one layer's forward and backward.
func probeTrain(r *Run, p trainParams, g *dgl.Graph, ds *graphgen.Classified) (err error) {
	defer func() { // dgl ops report a governed abort by panicking with an error
		if rec := recover(); rec != nil {
			e, ok := rec.(error)
			if !ok {
				panic(rec)
			}
			err = fmt.Errorf("dgl op probe: %w", e)
		}
	}()
	ctx := context.Background()
	const reps = 7
	h := uniform(r.rng(10), p.n, p.hidden)
	ones := func(rows, cols int) *tensor.Tensor {
		t := tensor.New(rows, cols)
		t.Fill(1)
		return t
	}
	left, right := ones(1, p.n), ones(p.hidden, 1)

	agg, err := g.NewCopySum(p.hidden)
	if err != nil {
		return err
	}
	fused, err := g.NewFusedAttention(p.hidden)
	if err != nil {
		return err
	}
	var aggMs, fwdMs, bwdMs, mmMs []float64
	var info dgl.RunInfo
	w := uniform(r.rng(11), p.d, p.hidden)
	z, dw, dx := tensor.New(p.n, p.hidden), tensor.New(p.d, p.hidden), tensor.New(p.n, p.d)
	for i := 0; i < reps; i++ {
		tp := autodiff.NewTape()
		aggMs = append(aggMs, r.span("dgl.CopyAggOp.ApplyCtx", "dgl", func() { agg.ApplyCtx(ctx, tp, tp.Param(h), &info) }))

		tp = autodiff.NewTape()
		hv := tp.Param(h)
		var out *autodiff.Var
		fwdMs = append(fwdMs, r.span("dgl.FusedAttentionOp.ApplyCtx", "dgl", func() { out = fused.ApplyCtx(ctx, tp, hv, hv, &info) }))
		loss := tp.MatMul(tp.MatMul(tp.Input(left), out), tp.Input(right))
		var bwdErr error
		bwdMs = append(bwdMs, r.span("autodiff.Tape.Backward(fused attention)", "dgl", func() { bwdErr = tp.Backward(loss) }))
		if bwdErr != nil {
			return bwdErr
		}

		mmMs = append(mmMs, r.span("tensor.MatMul+TMatMul+MatMulT", "tensor", func() {
			tensor.MatMul(z, ds.Features, w)   // forward  X·W
			tensor.TMatMul(dw, ds.Features, z) // backward dW = Xᵀ·dZ
			tensor.MatMulT(dx, z, w)           // backward dX = dZ·Wᵀ
		}))
	}
	median(r.layer, "dgl.copy_agg_apply_ms", "ms", "", aggMs)
	median(r.layer, "dgl.fused_attn_apply_ms", "ms", "", fwdMs)
	median(r.layer, "dgl.fused_attn_bwd_ms", "ms", "", bwdMs)
	median(r.layer, "tensor.matmul_ms", "ms", "", mmMs)
	return nil
}
