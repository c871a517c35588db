package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"featgraph/internal/core"
	"featgraph/internal/dgl"
	"featgraph/internal/graphgen"
	"featgraph/internal/nn"
)

func init() {
	register("table6", "Table VI: end-to-end GNN training and inference (DGL w/o vs w/ FeatGraph)", table6)
	register("accuracy", "§V-E accuracy check: both backends reach the same test accuracy", accuracyExp)
}

// e2eDataset builds the classification dataset used by the end-to-end
// experiments.
func e2eDataset(cfg *Config) *graphgen.Classified {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Scale == graphgen.Full {
		return graphgen.PlantedCommunities(rng, 8000, 16, 40, 10, 128)
	}
	return graphgen.PlantedCommunities(rng, 2500, 8, 16, 4, 64)
}

// buildModel constructs one of the three paper models over g. Hidden sizes
// follow the paper's ratios (GCN widest).
func buildModel(name string, g *dgl.Graph, in, classes int, seed int64) (nn.Model, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "gcn":
		return nn.NewGCN(g, in, 2*in, classes, rng)
	case "graphsage":
		return nn.NewGraphSage(g, in, in, classes, rng)
	case "gat":
		return nn.NewGAT(g, in, in, classes, rng)
	}
	return nil, fmt.Errorf("bench: unknown model %q", name)
}

// table6 measures per-epoch training and inference cost for the three
// models under both backends, on CPU (wall time) and simulated GPU
// (cycles), mirroring the paper's Table VI layout.
func table6(cfg *Config) error {
	ds := e2eDataset(cfg)
	in := ds.Features.Dim(1)
	models := []string{"gcn", "graphsage", "gat"}
	threads := min(cfg.Threads, 8)

	tbl := &Table{
		Title: fmt.Sprintf("End-to-end per-epoch cost (planted-community graph, |V|=%d, |E|=%d)",
			ds.Adj.NumRows, ds.Adj.NNZ()),
		Columns: []string{"target", "phase", "model", "DGL w/o FeatGraph", "DGL w/ FeatGraph", "speedup", "w/o msg-mem"},
	}

	for _, target := range []core.Target{core.CPU, core.GPU} {
		for _, model := range models {
			type result struct {
				cost     float64 // seconds (CPU) or cycles (GPU)
				infer    float64
				msgBytes uint64
			}
			res := map[dgl.Backend]*result{}
			for _, backend := range []dgl.Backend{dgl.Naive, dgl.FeatGraph} {
				gcfg := dgl.Config{
					Backend:    backend,
					Target:     target,
					NumThreads: threads,
					Device:     cfg.Device(),
				}
				// Template parameters are left at their defaults: the
				// grid search would pick them per host, and on hosts
				// whose LLC swallows the working set (see EXPERIMENTS.md)
				// the unpartitioned schedule is the tuned one.
				g, err := dgl.New(ds.Adj, gcfg)
				if err != nil {
					return err
				}
				m, err := buildModel(model, g, in, ds.NumClasses, cfg.Seed)
				if err != nil {
					return err
				}
				opt := nn.NewAdam(0.01)
				r := &result{}
				ctx := context.Background()

				// Warm-up epoch, then timed epochs. FeatGraph kernels report
				// cycles on the RunInfo; naive and dense work charges g.
				if _, _, err := nn.TrainEpochCtx(ctx, m, ds.Features, ds.Labels, ds.TrainMask, opt); err != nil {
					return err
				}
				g.ResetStats()
				var cycles uint64
				start := time.Now()
				for e := 0; e < cfg.Epochs; e++ {
					_, info, err := nn.TrainEpochCtx(ctx, m, ds.Features, ds.Labels, ds.TrainMask, opt)
					if err != nil {
						return err
					}
					cycles += info.SimCycles
				}
				if target == core.GPU {
					r.cost = float64(g.SimCycles+cycles) / float64(cfg.Epochs)
				} else {
					r.cost = time.Since(start).Seconds() / float64(cfg.Epochs)
				}
				r.msgBytes = g.MsgBytes / uint64(cfg.Epochs)

				g.ResetStats()
				start = time.Now()
				_, info, err := nn.InferCtx(ctx, m, ds.Features)
				if err != nil {
					return err
				}
				if target == core.GPU {
					r.infer = float64(g.SimCycles + info.SimCycles)
				} else {
					r.infer = time.Since(start).Seconds()
				}
				res[backend] = r
			}

			fmtCost := func(v float64) string {
				if target == core.GPU {
					return cyc(uint64(v))
				}
				return secs(v)
			}
			mem := fmt.Sprintf("%.1fMB", float64(res[dgl.Naive].msgBytes)/1e6)
			tbl.Rows = append(tbl.Rows, []string{
				target.String(), "training", model,
				fmtCost(res[dgl.Naive].cost), fmtCost(res[dgl.FeatGraph].cost),
				ratio(res[dgl.Naive].cost, res[dgl.FeatGraph].cost), mem,
			})
			tbl.Rows = append(tbl.Rows, []string{
				target.String(), "inference", model,
				fmtCost(res[dgl.Naive].infer), fmtCost(res[dgl.FeatGraph].infer),
				ratio(res[dgl.Naive].infer, res[dgl.FeatGraph].infer), "-",
			})
		}
	}
	tbl.Fprint(cfg.Out)
	fmt.Fprintln(cfg.Out, "w/o msg-mem = per-epoch bytes of materialized edge messages under the naive backend")
	fmt.Fprintln(cfg.Out, "(the allocation that makes naive GAT training exhaust GPU memory in the paper)")
	return nil
}

// accuracyExp reproduces the §V-E sanity check: training with the
// FeatGraph backend must reach the same accuracy as the baseline backend.
func accuracyExp(cfg *Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 99))
	ds := graphgen.PlantedCommunities(rng, 1500, 5, 12, 3, 32)
	epochs := cfg.AccEpochs
	if epochs == 0 {
		epochs = 60
		if cfg.Scale == graphgen.Full {
			epochs = 200
		}
	}
	tbl := &Table{
		Title:   fmt.Sprintf("Test accuracy after %d epochs (identical seeds per backend)", epochs),
		Columns: []string{"model", "DGL w/o FeatGraph", "DGL w/ FeatGraph", "|diff|"},
	}
	for _, model := range []string{"gcn", "graphsage", "gat"} {
		accs := map[dgl.Backend]float64{}
		for _, backend := range []dgl.Backend{dgl.Naive, dgl.FeatGraph} {
			g, err := dgl.New(ds.Adj, dgl.Config{Backend: backend, Target: core.CPU, NumThreads: min(cfg.Threads, 4)})
			if err != nil {
				return err
			}
			m, err := buildModel(model, g, ds.Features.Dim(1), ds.NumClasses, 7)
			if err != nil {
				return err
			}
			opt := nn.NewAdam(0.01)
			for e := 0; e < epochs; e++ {
				if _, _, err := nn.TrainEpochCtx(context.Background(), m, ds.Features, ds.Labels, ds.TrainMask, opt); err != nil {
					return err
				}
			}
			if accs[backend], err = nn.EvaluateCtx(context.Background(), m, ds.Features, ds.Labels, ds.TestMask); err != nil {
				return err
			}
		}
		diff := accs[dgl.Naive] - accs[dgl.FeatGraph]
		if diff < 0 {
			diff = -diff
		}
		tbl.Rows = append(tbl.Rows, []string{
			model,
			fmt.Sprintf("%.3f", accs[dgl.Naive]),
			fmt.Sprintf("%.3f", accs[dgl.FeatGraph]),
			fmt.Sprintf("%.3f", diff),
		})
	}
	tbl.Fprint(cfg.Out)
	return nil
}
