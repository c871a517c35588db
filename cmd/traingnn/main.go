// Command traingnn trains one of the repository's GNN models on a
// planted-community classification task with a chosen message-passing
// backend — the end-to-end workflow of the paper's Table VI as a CLI.
//
// Usage:
//
//	traingnn -model gcn -backend featgraph -epochs 100
//	traingnn -model gat -backend naive -target gpu
//	traingnn -model gat-multihead -heads 4
//	traingnn -graph mygraph.fgr       # train on a graph saved by featgen
//	                                  # (plain or sharded out-of-core format)
//	traingnn -checkpoint run.fgc      # durable snapshot after every epoch
//	traingnn -checkpoint run.fgc -resume   # continue after a crash
//	traingnn -planstore ./plans       # warm-start tuned schedules
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"featgraph/internal/core"
	"featgraph/internal/dgl"
	"featgraph/internal/durable"
	"featgraph/internal/graphgen"
	"featgraph/internal/graphio"
	"featgraph/internal/nn"
	"featgraph/internal/planstore"
	"featgraph/internal/telemetry"
	"featgraph/internal/tuner"
)

// runConfig carries the validated flag set.
type runConfig struct {
	model, backend, target string
	graph, trace           string
	checkpoint             string
	resume                 bool
	planstoreDir           string
	epochs, heads, hidden  int
	nverts, classes, feat  int
	seed                   int64
	lr                     float32
	threads                int
}

func main() {
	var (
		model      = flag.String("model", "gcn", "gcn | graphsage | gat | gat-multihead")
		backend    = flag.String("backend", "featgraph", "featgraph | naive")
		target     = flag.String("target", "cpu", "cpu | gpu (simulated)")
		graph      = flag.String("graph", "", "train on a saved graph file instead of a generated one")
		epochs     = flag.Int("epochs", 60, "training epochs")
		heads      = flag.Int("heads", 4, "attention heads (gat-multihead)")
		hidden     = flag.Int("hidden", 64, "hidden width")
		nverts     = flag.Int("n", 2000, "vertices")
		classes    = flag.Int("classes", 6, "classes")
		feat       = flag.Int("feat", 32, "input feature width")
		seed       = flag.Int64("seed", 1, "seed")
		lr         = flag.Float64("lr", 0.01, "Adam learning rate")
		threads    = flag.Int("threads", 4, "CPU threads")
		trace      = flag.String("trace", "", "record kernel spans and write a Chrome trace_event JSON file")
		checkpoint = flag.String("checkpoint", "", "write a durable training snapshot to this file after every epoch")
		resume     = flag.Bool("resume", false, "resume from -checkpoint if it exists (requires -checkpoint)")
		plans      = flag.String("planstore", "", "persistent tuned-plan store directory (warm-starts the schedule)")
	)
	flag.Parse()

	if err := validateFlags(*epochs, *heads, *hidden, *nverts, *classes, *feat, *threads, *lr); err != nil {
		fmt.Fprintln(os.Stderr, "traingnn:", err)
		os.Exit(2)
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "traingnn: -resume requires -checkpoint")
		os.Exit(2)
	}
	cfg := runConfig{
		model: *model, backend: *backend, target: *target,
		graph: *graph, trace: *trace,
		checkpoint: *checkpoint, resume: *resume, planstoreDir: *plans,
		epochs: *epochs, heads: *heads, hidden: *hidden,
		nverts: *nverts, classes: *classes, feat: *feat,
		seed: *seed, lr: float32(*lr), threads: *threads,
	}
	// Graceful shutdown: the first SIGINT/SIGTERM cancels the root context,
	// aborting the current epoch's kernels; training stops, the summary and
	// any -trace file are still written. A second signal kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "traingnn:", err)
		os.Exit(1)
	}
}

// validateFlags rejects malformed numeric flags up front with a named,
// actionable error rather than a hang, a panic, or a silent degenerate run.
func validateFlags(epochs, heads, hidden, nverts, classes, feat, threads int, lr float64) error {
	for _, c := range []struct {
		name string
		val  int
	}{
		{"epochs", epochs}, {"heads", heads}, {"hidden", hidden},
		{"n", nverts}, {"classes", classes}, {"feat", feat}, {"threads", threads},
	} {
		if c.val <= 0 {
			return fmt.Errorf("-%s must be positive, got %d", c.name, c.val)
		}
	}
	if classes > nverts {
		return fmt.Errorf("-classes (%d) cannot exceed -n (%d)", classes, nverts)
	}
	if !(lr > 0) || math.IsInf(lr, 0) {
		return fmt.Errorf("-lr must be a positive finite number, got %v", lr)
	}
	return nil
}

func run(ctx context.Context, rc runConfig) error {
	if rc.trace != "" {
		// 1<<16 events keeps the most recent epochs of a long run; the ring
		// overwrites the oldest spans rather than growing unbounded.
		telemetry.StartTrace(1 << 16)
	}
	rng := rand.New(rand.NewSource(rc.seed))
	var ds *graphgen.Classified
	if rc.graph != "" {
		adj, err := graphio.LoadAnyGraph(rc.graph)
		if err != nil {
			return fmt.Errorf("loading -graph: %w", err)
		}
		if adj.NumRows != adj.NumCols {
			return fmt.Errorf("-graph %s is %dx%d; training needs a square adjacency", rc.graph, adj.NumRows, adj.NumCols)
		}
		if rc.classes > adj.NumRows {
			return fmt.Errorf("-classes (%d) cannot exceed the graph's %d vertices", rc.classes, adj.NumRows)
		}
		ds = graphgen.ClassifyGraph(rng, adj, rc.classes, rc.feat)
	} else {
		ds = graphgen.PlantedCommunities(rng, rc.nverts, rc.classes, 14, 4, rc.feat)
	}
	fmt.Printf("dataset: |V|=%d |E|=%d classes=%d features=%d\n",
		ds.Adj.NumRows, ds.Adj.NNZ(), rc.classes, rc.feat)

	cfg := dgl.Config{NumThreads: rc.threads}
	switch rc.backend {
	case "featgraph":
		cfg.Backend = dgl.FeatGraph
	case "naive":
		cfg.Backend = dgl.Naive
	default:
		return fmt.Errorf("unknown backend %q", rc.backend)
	}
	switch rc.target {
	case "cpu":
		cfg.Target = core.CPU
	case "gpu":
		cfg.Target = core.GPU
	default:
		return fmt.Errorf("unknown target %q", rc.target)
	}

	// Persistent tuned-plan store: a prior process's tuning result for this
	// graph structure configures the schedule without a single measured run;
	// a cold start tunes once and persists. Damaged store entries are
	// skipped (and reported), never fatal.
	if rc.planstoreDir != "" && cfg.Backend == dgl.FeatGraph && cfg.Target == core.CPU {
		store, err := planstore.Open(rc.planstoreDir)
		if err != nil {
			return fmt.Errorf("opening -planstore: %w", err)
		}
		if n := store.CorruptEntries(); n > 0 {
			fmt.Fprintf(os.Stderr, "traingnn: planstore: skipped %d damaged entries (will re-tune)\n", n)
		}
		gps := []int{1, 2, 4, 8}
		tiles := []int{0, 8, 16}
		start := time.Now()
		best, warm, err := tuner.Tuned(store, ds.Adj, ds.Features, gps, tiles, rc.threads)
		if err != nil {
			return fmt.Errorf("tuning schedule: %w", err)
		}
		cfg.GraphPartitions = best.GraphPartitions
		cfg.FeatureTileFactor = best.FeatureTile
		mode := "cold tune"
		if warm {
			mode = "warm start"
		}
		fmt.Printf("planstore: %s in %s (partitions=%d tile=%d)\n",
			mode, time.Since(start).Round(time.Millisecond), best.GraphPartitions, best.FeatureTile)
	}

	g, err := dgl.New(ds.Adj, cfg)
	if err != nil {
		return err
	}
	// The shutdown context rides into every kernel run through the
	// per-call TrainEpochCtx/EvaluateCtx below, so a signal aborts the
	// in-flight epoch rather than waiting it out.

	mrng := rand.New(rand.NewSource(rc.seed + 1))
	var m nn.Model
	switch rc.model {
	case "gcn":
		m, err = nn.NewGCN(g, rc.feat, rc.hidden, rc.classes, mrng)
	case "graphsage":
		m, err = nn.NewGraphSage(g, rc.feat, rc.hidden, rc.classes, mrng)
	case "gat":
		m, err = nn.NewGAT(g, rc.feat, rc.hidden, rc.classes, mrng)
	case "gat-multihead":
		m, err = nn.NewMultiHeadGAT(g, rc.feat, rc.hidden/max(rc.heads, 1), rc.classes, rc.heads, mrng)
	default:
		return fmt.Errorf("unknown model %q", rc.model)
	}
	if err != nil {
		return err
	}

	opt := nn.NewAdam(rc.lr)

	// Resume: restore the last durable epoch. A missing checkpoint is a
	// normal first run; a damaged one is reported and training restarts
	// from scratch — corruption degrades, it never wedges the CLI.
	startEpoch := 0
	var resumedLoss float64
	resumedLossValid := false
	if rc.resume {
		ck, err := nn.LoadCheckpoint(rc.checkpoint)
		switch {
		case err == nil:
			if err := ck.Restore(m, opt); err != nil {
				return fmt.Errorf("resuming from %s: %w", rc.checkpoint, err)
			}
			startEpoch = ck.Epoch
			resumedLoss, resumedLossValid = ck.Loss, ck.Epoch > 0
			fmt.Printf("resumed from %s at epoch %d\n", rc.checkpoint, startEpoch)
		case os.IsNotExist(err):
			fmt.Printf("no checkpoint at %s yet, starting fresh\n", rc.checkpoint)
		case durable.IsCorrupt(err):
			fmt.Fprintf(os.Stderr, "traingnn: checkpoint %s is damaged (%v), starting fresh\n", rc.checkpoint, err)
		default:
			return fmt.Errorf("resuming from %s: %w", rc.checkpoint, err)
		}
	}

	start := time.Now()
	done := startEpoch
	lastLoss, lastLossValid := resumedLoss, resumedLossValid
	aborted := false
	// FeatGraph kernels report their simulated cycles on each epoch's
	// RunInfo; naive materialisation and the dense layers charge g.
	var kernelCycles uint64
	for e := startEpoch; e < rc.epochs; e++ {
		loss, info, err := nn.TrainEpochCtx(ctx, m, ds.Features, ds.Labels, ds.TrainMask, opt)
		kernelCycles += info.SimCycles
		if err != nil {
			// An abort (SIGINT/SIGTERM, deadline, load shed, stall) ends
			// training early but still flushes the summary and -trace file;
			// any other failure is fatal.
			var ae *dgl.AbortError
			if errors.As(err, &ae) || ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "traingnn: training aborted at epoch %d: %v\n", e+1, err)
				aborted = true
				break
			}
			return err
		}
		done = e + 1
		lastLoss, lastLossValid = loss, true
		if rc.checkpoint != "" {
			// Snapshot after every completed epoch: a SIGKILL at any
			// instant leaves the last durable epoch on disk, and the
			// atomic write means a crash mid-save keeps the previous one.
			if err := nn.SaveCheckpoint(rc.checkpoint, done, loss, m, opt); err != nil {
				return fmt.Errorf("writing checkpoint: %w", err)
			}
		}
		if (e+1)%10 == 0 || e == 0 {
			val, err := nn.EvaluateCtx(ctx, m, ds.Features, ds.Labels, ds.ValMask)
			if err != nil {
				fmt.Fprintf(os.Stderr, "traingnn: validation aborted at epoch %d: %v\n", e+1, err)
				aborted = true
				break
			}
			fmt.Printf("epoch %4d  loss %.4f  val acc %.3f\n", e+1, loss, val)
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("\n%s/%s/%s: %d epochs in %s (%.1fms/epoch)\n",
		m.Name(), rc.backend, rc.target, done-startEpoch, elapsed.Round(time.Millisecond),
		elapsed.Seconds()*1e3/float64(max(done-startEpoch, 1)))
	if lastLossValid {
		fmt.Printf("final loss: %.6f\n", lastLoss)
	}
	if !aborted {
		test, err := nn.EvaluateCtx(ctx, m, ds.Features, ds.Labels, ds.TestMask)
		if err != nil {
			fmt.Fprintf(os.Stderr, "traingnn: test evaluation aborted: %v\n", err)
		} else {
			fmt.Printf("test accuracy: %.3f\n", test)
		}
	}
	if cfg.Target == core.GPU {
		fmt.Printf("simulated GPU cycles: %.1f Mcycles total\n", float64(g.SimCycles+kernelCycles)/1e6)
	}
	if cfg.Backend == dgl.Naive {
		fmt.Printf("materialized messages: %.1f MB total\n", float64(g.MsgBytes)/1e6)
	}
	if rc.trace != "" {
		kept := telemetry.StopTrace()
		f, err := os.Create(rc.trace)
		if err != nil {
			return fmt.Errorf("creating -trace file: %w", err)
		}
		if err := telemetry.WriteTrace(f); err != nil {
			f.Close()
			return fmt.Errorf("writing -trace file: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: %d span events written to %s (open at chrome://tracing)\n", kept, rc.trace)
	}
	return nil
}
