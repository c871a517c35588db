package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"featgraph/internal/graphio"
	"featgraph/internal/nn"
	"featgraph/internal/sparse"
)

// TestKillAndResumeMatchesUninterrupted is the crash test the durability
// work exists for: run the real traingnn binary with -checkpoint, SIGKILL
// it mid-training (no deferred cleanup, no flushing — the same abruptness
// as a power cut), then run again with -resume and require the final loss
// and test accuracy to match an uninterrupted run of the same seed exactly.
func TestKillAndResumeMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills an external process")
	}
	dir := t.TempDir()
	bin := buildTraingnn(t, dir)

	// Enough epochs that the kill lands mid-run on any machine; small
	// enough graph that the whole test stays in seconds.
	args := []string{"-n", "400", "-epochs", "200", "-seed", "11", "-threads", "2", "-classes", "4", "-feat", "16"}

	ref := runToCompletion(t, bin, args...)
	refLoss := mustLine(t, ref, "final loss:")
	refAcc := mustLine(t, ref, "test accuracy:")

	// Crash run: wait for a few durable epochs, then SIGKILL.
	ck := filepath.Join(dir, "ck.fgc")
	crash := exec.Command(bin, append([]string{"-checkpoint", ck}, args...)...)
	var crashOut bytes.Buffer
	crash.Stdout, crash.Stderr = &crashOut, &crashOut
	if err := crash.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- crash.Wait() }()

	deadline := time.After(60 * time.Second)
	killed := false
	for !killed {
		select {
		case err := <-exited:
			// Finished before we could kill it (absurdly fast machine).
			// The resume run below then trains zero extra epochs and must
			// still report the same checkpointed numbers, so the assertion
			// stays valid — but flag an unexpected failure.
			if err != nil {
				t.Fatalf("crash run exited early with error: %v\n%s", err, crashOut.String())
			}
			killed = true
		case <-deadline:
			_ = crash.Process.Kill()
			t.Fatalf("no durable epoch appeared within 60s\n%s", crashOut.String())
		case <-time.After(5 * time.Millisecond):
			snap, err := nn.LoadCheckpoint(ck)
			if os.IsNotExist(err) {
				continue
			}
			if err != nil {
				// Atomic replacement means a reader never observes a
				// partial checkpoint, even while the trainer is mid-save.
				t.Fatalf("checkpoint unreadable while training: %v", err)
			}
			if snap.Epoch >= 5 {
				if err := crash.Process.Signal(syscall.SIGKILL); err != nil {
					t.Fatalf("sigkill: %v", err)
				}
				<-exited
				killed = true
			}
		}
	}

	snap, err := nn.LoadCheckpoint(ck)
	if err != nil {
		t.Fatalf("checkpoint after SIGKILL must be readable: %v", err)
	}
	t.Logf("killed at durable epoch %d of 200", snap.Epoch)

	res := runToCompletion(t, bin, append([]string{"-checkpoint", ck, "-resume"}, args...)...)
	if !strings.Contains(res, "resumed from") {
		t.Fatalf("resume run did not resume:\n%s", res)
	}
	if got := mustLine(t, res, "final loss:"); got != refLoss {
		t.Fatalf("resumed %q != uninterrupted %q", got, refLoss)
	}
	if got := mustLine(t, res, "test accuracy:"); got != refAcc {
		t.Fatalf("resumed %q != uninterrupted %q", got, refAcc)
	}
}

// TestGPUCycleTotalCountsSparseKernels: on -backend featgraph -target gpu
// the printed cycle total must include the sparse kernels, which report to
// each epoch's RunInfo, and not only the dense layers charged to the graph.
// Two plain graph files with the same vertex count give the same dense
// work, so the one with eight times the edges must print a larger total.
func TestGPUCycleTotalCountsSparseKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the traingnn binary")
	}
	dir := t.TempDir()
	bin := buildTraingnn(t, dir)
	var totals [2]float64
	for i, deg := range []int{2, 16} {
		path := filepath.Join(dir, fmt.Sprintf("deg%d.fgs", deg))
		if err := graphio.SaveSharded(path, sparse.Random(rand.New(rand.NewSource(3)), 2000, 2000, deg), 0); err != nil {
			t.Fatal(err)
		}
		out := runToCompletion(t, bin, "-graph", path, "-backend", "featgraph", "-target", "gpu",
			"-model", "gat", "-epochs", "3", "-hidden", "16", "-feat", "16", "-classes", "4", "-threads", "1")
		line := mustLine(t, out, "simulated GPU cycles:")
		if _, err := fmt.Sscanf(line, "simulated GPU cycles: %f Mcycles total", &totals[i]); err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
	}
	if totals[1] <= totals[0] {
		t.Fatalf("GPU total %.1f Mcycles at 16 edges/vertex, %.1f at 2: the sparse kernels are missing from it", totals[1], totals[0])
	}
}

// buildTraingnn compiles the command into dir and returns the binary's path.
func buildTraingnn(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "traingnn")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building traingnn: %v\n%s", err, out)
	}
	return bin
}

func runToCompletion(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

// mustLine returns the full line starting with prefix.
func mustLine(t *testing.T, out, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	t.Fatalf("no %q line in output:\n%s", prefix, out)
	return ""
}
