// Command featgen generates and inspects benchmark graphs in the
// repository's binary format (see internal/graphio), so the evaluation's
// synthetic datasets can be produced once and reused.
//
// Usage:
//
//	featgen -gen proteins -scale quick -o proteins.fgs    # generate
//	featgen -gen uniform -n 10000 -deg 50 -o g.fgs        # custom uniform
//	featgen -gen twotier -n 20000 -o rand100k.fgs         # paper's recipe
//	featgen -gen skewed -shard-edges 8000 -o g.fgs        # smaller shards
//	featgen -info g.fgs                                   # inspect
//
// Every file is in the sharded out-of-core format, which traingnn -graph
// loads whole and a ShardedCSR streams under a residency budget.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"featgraph/internal/graphgen"
	"featgraph/internal/graphio"
	"featgraph/internal/partition"
	"featgraph/internal/sparse"
)

func main() {
	var (
		gen   = flag.String("gen", "", "generator: proteins | reddit | rand100k | uniform | twotier | skewed")
		info  = flag.String("info", "", "print statistics for a stored graph")
		out   = flag.String("o", "graph.fgs", "output path for -gen")
		scale = flag.String("scale", "quick", "quick | full (for the named datasets)")
		seed  = flag.Int64("seed", 1, "generator seed")
		n     = flag.Int("n", 10000, "vertices (uniform/twotier/skewed)")
		deg   = flag.Int("deg", 50, "average degree (uniform/skewed)")
		skew  = flag.Float64("skew", 1.4, "zipf exponent (skewed)")
		shard = flag.Int("shard-edges", 0, fmt.Sprintf("edge target of one shard of the written file (<= 0 = %d)", graphio.DefaultShardEdges))
	)
	flag.Parse()

	if *info != "" {
		if err := printInfo(*info); err != nil {
			fmt.Fprintln(os.Stderr, "featgen:", err)
			os.Exit(1)
		}
		return
	}
	if *gen == "" {
		fmt.Fprintln(os.Stderr, "featgen: pass -gen <kind> or -info <file> (see -h)")
		os.Exit(2)
	}

	sc := graphgen.Quick
	if *scale == "full" {
		sc = graphgen.Full
	}
	rng := rand.New(rand.NewSource(*seed))
	var g *sparse.CSR
	switch *gen {
	case "proteins":
		g = graphgen.ProteinsLike(rng, sc).Adj
	case "reddit":
		g = graphgen.RedditLike(rng, sc).Adj
	case "rand100k":
		g = graphgen.Rand100K(rng, sc).Adj
	case "uniform":
		g = graphgen.Uniform(rng, *n, *deg)
	case "twotier":
		g = graphgen.TwoTier(rng, *n, 0.2, 20*(*deg), *deg)
	case "skewed":
		g = graphgen.Skewed(rng, *n, *deg, *skew)
	default:
		fmt.Fprintf(os.Stderr, "featgen: unknown generator %q\n", *gen)
		os.Exit(2)
	}
	if err := graphio.SaveSharded(*out, g, *shard); err != nil {
		fmt.Fprintln(os.Stderr, "featgen:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: |V|=%d |E|=%d avg degree %.1f\n", *out, g.NumRows, g.NNZ(), g.AvgDegree())
}

func printInfo(path string) error {
	g, err := graphio.LoadGraph(path)
	if err != nil {
		return err
	}
	colDeg := partition.ColumnDegrees(g)
	var maxIn, maxOut int32
	for r := 0; r < g.NumRows; r++ {
		if d := g.RowPtr[r+1] - g.RowPtr[r]; d > maxIn {
			maxIn = d
		}
	}
	for _, d := range colDeg {
		if d > maxOut {
			maxOut = d
		}
	}
	fmt.Printf("%s:\n", path)
	fmt.Printf("  vertices      %d\n", g.NumRows)
	fmt.Printf("  edges         %d\n", g.NNZ())
	fmt.Printf("  avg degree    %.1f\n", g.AvgDegree())
	fmt.Printf("  max in-deg    %d\n", maxIn)
	fmt.Printf("  max out-deg   %d\n", maxOut)
	fmt.Printf("  sparsity      %.4f%%\n", g.Sparsity()*100)
	return nil
}
