package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"featgraph/internal/bench"
)

// gitRev best-effort resolves the working tree's short revision; reports
// stay usable outside a git checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// writeFusedReport runs the fused-vs-three-pass attention measurements and
// writes the JSON report to path (checked in as BENCH_PR7.json).
func writeFusedReport(ctx context.Context, path string, rounds int) error {
	if rounds <= 0 {
		return fmt.Errorf("-rounds must be positive, got %d", rounds)
	}
	rep, err := bench.RunFusedReport(ctx, os.Stderr, gitRev(), rounds)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	fmt.Printf("fused-attention report written to %s (speedups: %v, agreement passed: %v)\n",
		path, rep.Speedup, rep.Agreement.Passed)
	return f.Close()
}

// writeOutOfCoreReport runs the sharded-vs-in-memory SpMM measurements on a
// graph several times larger than the residency budget and writes the JSON
// report to path (checked in as BENCH_PR8.json).
func writeOutOfCoreReport(ctx context.Context, path string, rounds int) error {
	if rounds <= 0 {
		return fmt.Errorf("-rounds must be positive, got %d", rounds)
	}
	rep, err := bench.RunOutOfCoreReport(ctx, os.Stderr, gitRev(), rounds)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	fmt.Printf("out-of-core report written to %s (slowdown: %v, %.1fx over budget, agreement passed: %v)\n",
		path, rep.Slowdown, rep.Graph.BudgetRatio, rep.Agreement.Passed)
	return f.Close()
}

// writeServeReport runs the micro-batched-vs-unbatched serving measurements
// under thousands of closed-loop users and writes the JSON report to path
// (checked in as BENCH_PR9.json).
func writeServeReport(ctx context.Context, path string, rounds int) error {
	if rounds <= 0 {
		return fmt.Errorf("-rounds must be positive, got %d", rounds)
	}
	rep, err := bench.RunServeReport(ctx, os.Stderr, gitRev(), rounds)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	fmt.Printf("serving report written to %s (%.1fx throughput at the %.0fms p99 SLO, passed: %v, bitwise: %v)\n",
		path, rep.Summary.ThroughputRatio, rep.Summary.SLOMs,
		rep.Summary.Passed, rep.Agreement.Bitwise)
	return f.Close()
}

// writeMutateReport measures serving latency while the graph is mutated
// live (versioned engine) and stop-the-world (rebuild baseline), and writes
// the JSON report to path (checked in as BENCH_PR10.json).
func writeMutateReport(ctx context.Context, path string, rounds int) error {
	if rounds <= 0 {
		return fmt.Errorf("-rounds must be positive, got %d", rounds)
	}
	rep, err := bench.RunMutateReport(ctx, os.Stderr, gitRev(), rounds)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	fmt.Printf("mutation report written to %s (live p99 %.2fx quiescent, stop-the-world %.2fx, passed: %v, bitwise: %v)\n",
		path, rep.Summary.LiveOverQuiescentP99, rep.Summary.StwOverQuiescentP99,
		rep.Summary.Passed, rep.Consistency.Bitwise)
	return f.Close()
}
