// Command featbench regenerates the tables and figures of the FeatGraph
// paper's evaluation (§V) on synthetic stand-ins for its datasets.
//
// Usage:
//
//	featbench -list                 # show every experiment id
//	featbench -exp table3a         # run one experiment
//	featbench -exp all             # run the whole evaluation
//	featbench -exp table4a -full   # closer-to-paper sizing (slow)
//
// CPU experiments report wall time; GPU experiments report simulated
// cycles from the cudasim cost model (see DESIGN.md). The repository's
// end-to-end benchmark is fgbench (benchmark/), not this command.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"featgraph/internal/bench"
	"featgraph/internal/graphgen"
)

func main() {
	// Graceful shutdown: the first SIGINT/SIGTERM cancels the root context
	// so -exp all stops after the running experiment; a second signal kills
	// the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var (
		exp     = flag.String("exp", "", "experiment id to run, or 'all'")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		full    = flag.Bool("full", false, "run at larger, closer-to-paper scale")
		seed    = flag.Int64("seed", 1, "dataset seed")
		threads = flag.Int("threads", 16, "max CPU worker count")
		reps    = flag.Int("reps", 0, "timed repetitions per measurement (0 = scale default)")
		metrics = flag.Bool("metrics", false, "run the telemetry smoke workload and print the Prometheus metrics snapshot")
	)
	flag.Parse()

	if *metrics {
		if err := bench.MetricsSmoke(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "featbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *threads <= 0 {
		fmt.Fprintf(os.Stderr, "featbench: -threads must be positive, got %d\n", *threads)
		os.Exit(2)
	}
	if *reps < 0 {
		fmt.Fprintf(os.Stderr, "featbench: -reps must be >= 0, got %d\n", *reps)
		os.Exit(2)
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-9s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "featbench: pass -exp <id> or -list (see -h)")
		os.Exit(2)
	}

	scale := graphgen.Quick
	if *full {
		scale = graphgen.Full
	}
	cfg := bench.DefaultConfig(scale, os.Stdout)
	cfg.Seed = *seed
	cfg.Threads = *threads
	if *reps > 0 {
		cfg.Reps = *reps
	}

	run := func(e bench.Experiment) {
		fmt.Printf("\n### %s — %s\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "featbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("[%s finished in %s]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range bench.Experiments() {
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "featbench: interrupted, skipping remaining experiments")
				return
			}
			run(e)
		}
		return
	}
	e, ok := bench.ByID(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "featbench: unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	run(e)
}
