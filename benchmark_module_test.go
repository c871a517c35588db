//go:build !race

package featgraph_test

import (
	"os"
	"os/exec"
	"testing"
)

// The benchmark is a nested module (benchmark/go.mod) that `go test ./...`
// at the root does not see. This test vets and tests it, so a change to an
// API fgbench calls, or to a result it checks, fails here rather than only
// in CI. Skipped under -short, without a go command on PATH, and under
// -race (the build tag): the nested run takes ~15 s un-raced.
func TestBenchmarkModuleVetAndTest(t *testing.T) {
	if testing.Short() {
		t.Skip("nested benchmark module skipped under -short")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	for _, args := range [][]string{
		{"-C", "benchmark", "vet", "./..."},
		{"-C", "benchmark", "test", "./..."},
	} {
		cmd := exec.Command(gobin, args...)
		cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOFLAGS=-buildvcs=false")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
}
