package tuner

import (
	"math/rand"
	"testing"

	"featgraph/internal/cudasim"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

func TestGridCPUCoversDesignSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	adj := sparse.Random(rng, 200, 200, 10)
	x := tensor.New(200, 16)
	x.FillUniform(rng, -1, 1)
	cells, best, err := GridCPU(adj, x, []int{1, 4}, []int{0, 8}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	if best.Seconds <= 0 {
		t.Fatalf("best time %v", best.Seconds)
	}
	for _, c := range cells {
		if c.Seconds < best.Seconds {
			t.Fatalf("best is not minimal: %v vs %v", best, c)
		}
	}
}

func TestGridCPURejectsShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	adj := sparse.Random(rng, 10, 10, 2)
	x := tensor.New(11, 4)
	if _, _, err := GridCPU(adj, x, []int{1}, []int{0}, 1, 1); err == nil {
		t.Fatal("shape mismatch should error")
	}
}

func TestGridGPUBlocksPrefersMoreBlocks(t *testing.T) {
	// Figure 15's effect: with many SMs, tiny grids underutilize the
	// device, so cycles should not increase as the grid grows.
	rng := rand.New(rand.NewSource(3))
	adj := sparse.Random(rng, 512, 512, 8)
	x := tensor.New(512, 32)
	x.FillUniform(rng, -1, 1)
	dev := cudasim.NewDevice(cudasim.Config{NumSMs: 8})
	cells, best, err := GridGPUBlocks(dev, adj, x, []int{1, 8, 64, 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d", len(cells))
	}
	if cells[0].SimCycles < cells[len(cells)-1].SimCycles {
		t.Fatalf("1 block (%d cycles) should not beat %d blocks (%d cycles)",
			cells[0].SimCycles, cells[len(cells)-1].Blocks, cells[len(cells)-1].SimCycles)
	}
	if best.SimCycles > cells[0].SimCycles {
		t.Fatal("best is not minimal")
	}
}

func TestSuccessiveHalvingFindsReasonableConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	adj := sparse.Random(rng, 400, 400, 10)
	x := tensor.New(400, 32)
	x.FillUniform(rng, -1, 1)
	gps := []int{1, 4, 16}
	tiles := []int{0, 8}

	res, err := SuccessiveHalving(adj, x, gps, tiles, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Seconds <= 0 {
		t.Fatalf("best time %v", res.Best.Seconds)
	}
	// The winner must be drawn from the design space.
	found := false
	for _, gp := range gps {
		for _, tile := range tiles {
			if res.Best.GraphPartitions == gp && res.Best.FeatureTile == tile {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("best %+v not in design space", res.Best)
	}
	// Successive halving over 6 candidates: round 1 = 6 warm + 6 timed,
	// round 2 = 3×2, round 3 = 2×4 → 26 total; far fewer than grid search
	// at the final precision (6 × (1 warm + 4 reps) = 30, and the
	// comparison grows with the space).
	if res.Measurements == 0 || res.Measurements > 30 {
		t.Fatalf("measurements = %d", res.Measurements)
	}
}

func TestSuccessiveHalvingRejectsBadInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	adj := sparse.Random(rng, 10, 10, 2)
	if _, err := SuccessiveHalving(adj, tensor.New(11, 4), []int{1}, []int{0}, 1); err == nil {
		t.Fatal("shape mismatch should error")
	}
	x := tensor.New(10, 4)
	if _, err := SuccessiveHalving(adj, x, nil, nil, 1); err == nil {
		t.Fatal("empty design space should error")
	}
}

// TestSuccessiveHalvingSingleCandidate is the degenerate-space regression
// test: with exactly one (gp, tile) cell the halving loop has nothing to
// discard, but the lone candidate must still be warmed up and measured so
// Best carries a real latency.
func TestSuccessiveHalvingSingleCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	adj := sparse.Random(rng, 200, 200, 8)
	x := tensor.New(200, 16)
	x.FillUniform(rng, -1, 1)

	res, err := SuccessiveHalving(adj, x, []int{4}, []int{8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.GraphPartitions != 4 || res.Best.FeatureTile != 8 {
		t.Fatalf("best %+v, want the only candidate (gp=4, tile=8)", res.Best)
	}
	if res.Best.Seconds <= 0 {
		t.Fatalf("single candidate was never timed: Seconds = %v", res.Best.Seconds)
	}
	if res.Measurements == 0 {
		t.Fatal("single candidate was never measured")
	}
	if len(res.Survivors) != 1 {
		t.Fatalf("survivors = %v, want exactly the lone candidate", res.Survivors)
	}
}
