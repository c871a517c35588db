// GCN training: the end-to-end integration of §IV-B and Table VI. A
// 2-layer GCN is trained on a planted-community vertex-classification task
// twice — once with the naive message-materializing backend (DGL without
// FeatGraph) and once with fused FeatGraph kernels — demonstrating that
// the backends agree on learning dynamics while differing in cost.
//
// This example uses the repository's internal mini-DGL framework directly,
// showing how FeatGraph slots in as a GNN framework backend.
//
// Run with: go run ./examples/gcn_training
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"featgraph/internal/core"
	"featgraph/internal/dgl"
	"featgraph/internal/graphgen"
	"featgraph/internal/nn"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	ds := graphgen.PlantedCommunities(rng, 2000, 6, 14, 4, 32)
	fmt.Printf("dataset: %d vertices, %d edges, %d classes, %d features\n",
		ds.Adj.NumRows, ds.Adj.NNZ(), ds.NumClasses, ds.Features.Dim(1))

	const epochs = 40
	ctx := context.Background()
	for _, backend := range []dgl.Backend{dgl.Naive, dgl.FeatGraph} {
		cfg := dgl.Config{Backend: backend, Target: core.CPU}
		if backend == dgl.FeatGraph {
			cfg.GraphPartitions = 8
			cfg.FeatureTileFactor = 16
		}
		g, err := dgl.New(ds.Adj, cfg)
		if err != nil {
			log.Fatal(err)
		}
		model, err := nn.NewGCN(g, ds.Features.Dim(1), 64, ds.NumClasses, rand.New(rand.NewSource(5)))
		if err != nil {
			log.Fatal(err)
		}
		opt := nn.NewAdam(0.01)

		start := time.Now()
		var lastLoss float64
		for e := 0; e < epochs; e++ {
			loss, _, err := nn.TrainEpochCtx(ctx, model, ds.Features, ds.Labels, ds.TrainMask, opt)
			if err != nil {
				log.Fatal(err)
			}
			lastLoss = loss
			if (e+1)%10 == 0 {
				val, err := nn.EvaluateCtx(ctx, model, ds.Features, ds.Labels, ds.ValMask)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("  [%s] epoch %3d  loss %.4f  val acc %.3f\n", backend, e+1, loss, val)
			}
		}
		elapsed := time.Since(start)
		test, err := nn.EvaluateCtx(ctx, model, ds.Features, ds.Labels, ds.TestMask)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s] %d epochs in %s (%.1fms/epoch), final loss %.4f, TEST ACC %.3f, materialized msgs %.1fMB\n\n",
			backend, epochs, elapsed.Round(time.Millisecond),
			elapsed.Seconds()*1e3/epochs, lastLoss, test, float64(g.MsgBytes)/1e6)
	}
}
