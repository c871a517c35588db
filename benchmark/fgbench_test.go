package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"featgraph/benchmark/harness"
	"featgraph/internal/workpool"
)

func TestMain(m *testing.M) {
	// As realMain does, before anything sizes the worker pool.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The committed BENCHMARK.json is the spec table, and the table is within
// the limits the benchmark contract sets.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	want := describe()
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `fgbench -describe`; regenerate it")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(want))
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	metric := func(m metricSpec) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	hasSetup := false
	for i, m := range endToEnd {
		metric(m)
		// A workload's own bound comes from the A/A rule, and the driver's is
		// the largest of them; set-up time has the largest bound of all.
		for _, w := range workloads {
			if b := w.bounds[i]; b < harness.DefaultBound || b > driverBound(i) || math.Abs(b*20-math.Round(b*20)) > 1e-9 {
				t.Errorf("metric %s on %s: bound %v is not a multiple of 0.05 between %v and %v", m.Name, w.Name, b, harness.DefaultBound, driverBound(i))
			}
		}
		if b := driverBound(i); b > harness.MaxBound || b > driverBound(len(endToEnd)-1) {
			t.Errorf("metric %s: bound %v", m.Name, b)
		}
		hasSetup = hasSetup || (i == len(endToEnd)-1 && m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup || len(endToEnd) > 16 {
		t.Errorf("end_to_end needs setup_s (s, lower) and at most 16 entries; has %d", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(perLayer))
	}
	owners := map[string]bool{"": true}
	for _, w := range workloads {
		owners[w.Name] = true
	}
	for _, m := range perLayer {
		metric(m)
		if !owners[m.owner] || (m.owner == "") != (m.Name == traceOverhead.Name) {
			t.Errorf("metric %s: owner %q", m.Name, m.owner)
		}
	}
}

// Every workload at smoke size, traced: correctness checks on, timing
// assertions off. Fails on a failed check, a missing or extra metric, a
// goroutine that outlives the workload, or a file left under the temp root.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			workpool.Default().Size() // starts the pool's workers, which live for the process
			baseline := runtime.NumGoroutine()
			s := &session{opts: options{seconds: smokeSeconds, smoke: true, trace: 1}, threads: runtime.GOMAXPROCS(0), tmpRoot: t.TempDir(), stdout: &bytes.Buffer{}, stderr: os.Stderr}
			start := time.Now()
			r := s.newRun(w.Name, 7, true, smokeSeconds, setupReps, true)
			if err := w.run(r); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %.1fs, %d ops, %d spans", w.Name, time.Since(start).Seconds(), r.attempted, len(r.tr.Spans()))
			for _, f := range r.failures {
				t.Errorf("failed check: %s", f)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%d of %d operations failed", r.failed, r.attempted)
			}

			wantE2E := map[string]bool{}
			for _, m := range endToEnd {
				wantE2E[m.Name] = m.Name != "peak_rss_mb" // read at exit by runOne
			}
			sameNames(t, "end-to-end", wantE2E, r.e2e)
			wantLayer := map[string]bool{}
			for _, m := range perLayer {
				wantLayer[m.Name] = m.owner == w.Name || m.owner == ""
			}
			sameNames(t, "per-layer", wantLayer, r.layer)
			for _, m := range endToEnd {
				if v, ok := r.e2e[m.Name]; ok && !(v.V > 0) {
					t.Errorf("end-to-end metric %s = %v; they are never 0", m.Name, v.V)
				}
			}
			if r.tr.Dropped() > 0 || len(r.tr.Spans()) == 0 {
				t.Errorf("trace: %d spans, %d dropped", len(r.tr.Spans()), r.tr.Dropped())
			}

			if left, _ := os.ReadDir(s.tmpRoot); len(left) > 0 {
				t.Errorf("%d entries left under the temp root, first %s", len(left), left[0].Name())
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				buf := make([]byte, 1<<16)
				t.Errorf("%d goroutines alive after the workload, baseline %d:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

func sameNames(t *testing.T, what string, want map[string]bool, got map[string]Value) {
	t.Helper()
	for name, w := range want {
		if _, ok := got[name]; w && !ok {
			t.Errorf("%s metric %s is missing", what, name)
		}
	}
	for name, v := range got {
		if !want[name] {
			t.Errorf("%s metric %s is not in BENCHMARK.json for this workload", what, name)
		}
		if v.V != v.V || v.V-v.V != 0 {
			t.Errorf("%s metric %s = %v", what, name, v.V)
		}
	}
}

// The command as the driver runs it: the last line of standard output is
// one JSON object with exactly the contract's keys, carrying exactly the
// end-to-end names untraced and exactly the per-layer names traced, and the
// temp root is gone afterwards.
func TestResultLine(t *testing.T) {
	for _, trace := range []int{0, 1} {
		base := t.TempDir()
		t.Setenv("FGBENCH_TMP", base)
		var stdout bytes.Buffer
		args := []string{"--workload", "ooc_spmm", "--seed", "3", "--seconds", "1", "--trace", strconv.Itoa(trace), "-smoke", "-trace-out", filepath.Join(t.TempDir(), "trace.json")}
		if code := realMain(args, &stdout, os.Stderr); code != 0 {
			t.Fatalf("trace %d: exit code %d\n%s", trace, code, stdout.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
			t.Errorf("result keys: %v", res)
		}
		if string(res["correct"]) != "true" || string(res["failed"]) != "0" {
			t.Errorf("correct=%s failed=%s", res["correct"], res["failed"])
		}
		var metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		specs := endToEnd
		if trace == 1 {
			specs = perLayer
		}
		if len(metrics) != len(specs) {
			t.Errorf("trace %d: %d metrics in the result, %d in the spec", trace, len(metrics), len(specs))
		}
		for _, m := range specs {
			got, ok := metrics[m.Name]
			if !ok || got.Value == nil || got.Unit != m.Unit {
				t.Errorf("trace %d: metric %s: %+v", trace, m.Name, got)
			}
		}
		if left, _ := os.ReadDir(base); len(left) > 0 {
			t.Errorf("trace %d: %s left under the temp base", trace, left[0].Name())
		}
	}
}

// The benchmark depends only on surfaces that are meant to survive, so the
// simplification PRs it will judge never need to edit it: the root package
// wherever it has the API, a fixed set of internal packages where it does
// not, and nothing scheduled for deletion.
func TestSourcesAvoidDoomedSurface(t *testing.T) {
	allowed := map[string]bool{}
	for _, p := range []string{"core", "dgl", "nn", "graphio", "sample", "sparse", "tensor", "graphgen", "mkl", "ligra", "telemetry", "workpool",
		"autodiff", // the dgl op probes need a tape to apply an op and run its backward
	} {
		allowed["featgraph/internal/"+p] = true
	}
	doomed := map[string]string{
		"LegacySched":     "Options.LegacySched",
		"UseContext":      "Graph.UseContext",
		"LegacyAttention": "Config.LegacyAttention",
		"Apply":           "nil-context Apply (use ApplyCtx)",
		"TrainEpoch":      "context-free nn.TrainEpoch",
		"Infer":           "context-free nn.Infer",
		"Evaluate":        "context-free nn.Evaluate",
		"Forward":         "context-free Model.Forward",
		"LoadGraph":       "the FGG1 reader's entry point",
		"LoadTensor":      "the FGT1 reader's entry point",
	}
	var files []string
	for _, dir := range []string{".", "harness"} {
		matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(p, "featgraph/internal/") && !allowed[p] {
				t.Errorf("%s imports %s", path, p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if why, bad := doomed[sel.Sel.Name]; bad {
					t.Errorf("%s uses %s: %s", fset.Position(sel.Pos()), sel.Sel.Name, why)
				}
			}
			return true
		})
	}
}
