package bench

import (
	"fmt"
	"math/rand"

	"featgraph/internal/cusparse"
	"featgraph/internal/gunrock"
	"featgraph/internal/tensor"
	"featgraph/internal/tuner"
)

func init() {
	register("table4a", "Table IV(a): GPU GCN aggregation (Gunrock vs cuSPARSE vs FeatGraph)", table4a)
	register("table4b", "Table IV(b): GPU MLP aggregation (Gunrock vs FeatGraph)", table4b)
	register("table4c", "Table IV(c): GPU dot-product attention (Gunrock vs FeatGraph)", table4c)
	register("fig12", "Figure 12: effect of tree reduction (GPU dot-product attention, rand-100K-like)", fig12)
	register("fig13", "Figure 13: effect of hybrid partitioning (GPU GCN aggregation, rand-100K-like)", fig13)
	register("fig15", "Figure 15: sensitivity to number of CUDA blocks (GPU GCN aggregation, reddit-like)", fig15)
}

func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// table4a compares simulated-GPU GCN aggregation across the three systems.
func table4a(cfg *Config) error {
	dev := cfg.Device()
	tbl := &Table{
		Title:   "GPU GCN aggregation (simulated cycles)",
		Columns: []string{"dataset", "d", "Gunrock", "cuSPARSE", "FeatGraph", "FG vs Gunrock", "FG vs cuSPARSE"},
	}
	for _, ds := range cfg.Datasets() {
		gg := gunrock.NewGraph(ds.Adj)
		for _, d := range cfg.FeatLens {
			x := randX(cfg.Seed, ds.Adj.NumRows, d)
			out := tensor.New(ds.Adj.NumRows, d)

			gunCycles, err := gunrock.GCNAggregation(dev, gg, x, out)
			if err != nil {
				return err
			}
			cuCycles, err := cusparse.CSRMM(dev, ds.Adj, x, out)
			if err != nil {
				return err
			}
			k, err := buildGCNGPU(dev, ds.Adj, x, 0, 0, 0)
			if err != nil {
				return err
			}
			stats, err := k.Run(out)
			if err != nil {
				return err
			}
			tbl.Rows = append(tbl.Rows, []string{
				ds.Name, fmt.Sprint(d), cyc(gunCycles), cyc(cuCycles), cyc(stats.SimCycles),
				ratio(float64(gunCycles), float64(stats.SimCycles)),
				ratio(float64(cuCycles), float64(stats.SimCycles)),
			})
		}
	}
	tbl.Fprint(cfg.Out)
	return nil
}

// table4b compares simulated-GPU MLP aggregation (d1 = 8).
func table4b(cfg *Config) error {
	const d1 = 8
	dev := cfg.Device()
	tbl := &Table{
		Title:   "GPU MLP aggregation, d1=8 (simulated cycles; cuSPARSE cannot express this)",
		Columns: []string{"dataset", "d2", "Gunrock", "FeatGraph", "FG vs Gunrock"},
	}
	for _, ds := range cfg.Datasets() {
		gg := gunrock.NewGraph(ds.Adj)
		x := randX(cfg.Seed, ds.Adj.NumRows, d1)
		for _, d2 := range cfg.FeatLens {
			w := randX(cfg.Seed+1, d1, d2)
			out := tensor.New(ds.Adj.NumRows, d2)

			gunCycles, err := gunrock.MLPAggregation(dev, gg, x, w, out)
			if err != nil {
				return err
			}
			k, err := buildMLPGPU(dev, ds.Adj, x, w)
			if err != nil {
				return err
			}
			stats, err := k.Run(out)
			if err != nil {
				return err
			}
			tbl.Rows = append(tbl.Rows, []string{
				ds.Name, fmt.Sprint(d2), cyc(gunCycles), cyc(stats.SimCycles),
				ratio(float64(gunCycles), float64(stats.SimCycles)),
			})
		}
	}
	tbl.Fprint(cfg.Out)
	return nil
}

// table4c compares simulated-GPU dot-product attention.
func table4c(cfg *Config) error {
	dev := cfg.Device()
	tbl := &Table{
		Title:   "GPU dot-product attention (simulated cycles; cuSPARSE via ConstrainedGeMM, paper footnote 3)",
		Columns: []string{"dataset", "d", "Gunrock", "cuSPARSE", "FeatGraph", "FG vs Gunrock"},
	}
	for _, ds := range cfg.Datasets() {
		gg := gunrock.NewGraph(ds.Adj)
		for _, d := range cfg.FeatLens {
			x := randX(cfg.Seed, ds.Adj.NumRows, d)
			att := tensor.New(ds.Adj.NNZ(), 1)

			gunCycles, err := gunrock.EdgeDot(dev, gg, x, x, att)
			if err != nil {
				return err
			}
			cuCycles, err := cusparse.ConstrainedGeMM(dev, ds.Adj, x, x, att)
			if err != nil {
				return err
			}
			k, err := buildDotGPU(dev, ds.Adj, x, true)
			if err != nil {
				return err
			}
			stats, err := k.Run(att)
			if err != nil {
				return err
			}
			tbl.Rows = append(tbl.Rows, []string{
				ds.Name, fmt.Sprint(d), cyc(gunCycles), cyc(cuCycles), cyc(stats.SimCycles),
				ratio(float64(gunCycles), float64(stats.SimCycles)),
			})
		}
	}
	tbl.Fprint(cfg.Out)
	return nil
}

// fig12 ablates tree reduction for dot-product attention on the two-tier
// graph, reporting speedup over Gunrock.
func fig12(cfg *Config) error {
	ds := cfg.Datasets()[2] // rand-100K-like
	dev := cfg.Device()
	gg := gunrock.NewGraph(ds.Adj)
	tbl := &Table{
		Title:   fmt.Sprintf("Tree-reduction ablation on %s (speedup over Gunrock)", ds.Name),
		Columns: []string{"d", "Gunrock", "FG w/o tree reduction", "FG w/ tree reduction"},
	}
	for _, d := range cfg.FeatLens {
		x := randX(cfg.Seed, ds.Adj.NumRows, d)
		att := tensor.New(ds.Adj.NNZ(), 1)
		gunCycles, err := gunrock.EdgeDot(dev, gg, x, x, att)
		if err != nil {
			return err
		}
		var fg [2]uint64
		for i, tree := range []bool{false, true} {
			k, err := buildDotGPU(dev, ds.Adj, x, tree)
			if err != nil {
				return err
			}
			stats, err := k.Run(att)
			if err != nil {
				return err
			}
			fg[i] = stats.SimCycles
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(d), "1.0x",
			ratio(float64(gunCycles), float64(fg[0])),
			ratio(float64(gunCycles), float64(fg[1])),
		})
	}
	tbl.Fprint(cfg.Out)
	return nil
}

// fig13 ablates hybrid partitioning for GCN aggregation on the two-tier
// graph, reporting speedup over cuSPARSE.
func fig13(cfg *Config) error {
	ds := cfg.Datasets()[2] // rand-100K-like
	dev := cfg.Device()
	// Threshold: split at ~4x the low-tier average column degree so only
	// the high-degree 20% is staged through shared memory. Staging only
	// amortizes when each block owns many rows, so the grid is sized to
	// the SM count for both variants (§III-C3).
	threshold := int32(4 * ds.Adj.NNZ() / ds.Adj.NumCols)
	blocks := cfg.Device().NumSMs()
	tbl := &Table{
		Title:   fmt.Sprintf("Hybrid-partitioning ablation on %s (speedup over cuSPARSE; threshold=%d)", ds.Name, threshold),
		Columns: []string{"d", "cuSPARSE", "FG w/o hybrid", "FG w/ hybrid"},
	}
	for _, d := range cfg.FeatLens {
		x := randX(cfg.Seed, ds.Adj.NumRows, d)
		out := tensor.New(ds.Adj.NumRows, d)
		cuCycles, err := cusparse.CSRMM(dev, ds.Adj, x, out)
		if err != nil {
			return err
		}
		var fg [2]uint64
		for i, hybrid := range []int32{0, threshold} {
			k, err := buildGCNGPU(dev, ds.Adj, x, blocks, hybrid, 0)
			if err != nil {
				return err
			}
			stats, err := k.Run(out)
			if err != nil {
				return err
			}
			fg[i] = stats.SimCycles
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(d), "1.0x",
			ratio(float64(cuCycles), float64(fg[0])),
			ratio(float64(cuCycles), float64(fg[1])),
		})
	}
	tbl.Fprint(cfg.Out)
	return nil
}

// fig15 sweeps the CUDA grid size for GCN aggregation.
func fig15(cfg *Config) error {
	ds := cfg.Datasets()[1] // reddit-like
	d := 128
	x := randX(cfg.Seed, ds.Adj.NumRows, d)
	n := ds.Adj.NumRows
	candidates := []int{16, 64, 256, 1024, 4096}
	if n > 4096 {
		candidates = append(candidates, n)
	}
	cells, best, err := tuner.GridGPUBlocks(cfg.Device(), ds.Adj, x, candidates)
	if err != nil {
		return err
	}
	tbl := &Table{
		Title:   fmt.Sprintf("CUDA-block sensitivity on %s, d=%d", ds.Name, d),
		Columns: []string{"blocks", "sim cycles"},
	}
	for _, c := range cells {
		tbl.Rows = append(tbl.Rows, []string{fmt.Sprint(c.Blocks), cyc(c.SimCycles)})
	}
	tbl.Fprint(cfg.Out)
	fmt.Fprintf(cfg.Out, "best: %d blocks (%s)\n", best.Blocks, cyc(best.SimCycles))
	return nil
}
