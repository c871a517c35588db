// Command fgbench is the repository's benchmark: one invocation runs one
// workload from a seed, checks its outputs against an independent
// reference, prints every metric by name with its unit, and exits. See
// README.md for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"featgraph/benchmark/harness"
	"featgraph/internal/workpool"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	traceOut  string
	smoke     bool
	selfcheck int
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fgbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run, or \"all\" (BENCHMARK.json lists them)")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "total length of the timed sections")
	fs.IntVar(&o.trace, "trace", 0, "1 repeats the workload with spans recorded and reports the per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "where -trace 1 writes the span file (default <tmp base>/trace-<workload>.json)")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs and ~1 s of measurement: checks correctness, not speed")
	fs.IntVar(&o.selfcheck, "selfcheck", 0, "run the workload N times (seeds seed..seed+N-1) and fail if an end-to-end metric's spread exceeds its bound on that workload")
	desc := fs.Bool("describe", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *desc {
		stdout.Write(describe())
		return 0
	}
	var todo []workloadSpec
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.Name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 || o.seconds <= 0 || fs.NArg() > 0 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintf(stderr, "fgbench: need -workload <name|all>, -seconds > 0, -trace 0|1; got %q\n", args)
		return 2
	}

	// GOMAXPROCS is fixed before anything touches the worker pool, whose
	// size is read once at first use.
	threads := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(threads)

	// $FGBENCH_TMP is where run.sh keeps temp files inside the checkout; unset,
	// it is the system temp directory.
	tmpBase := os.Getenv("FGBENCH_TMP")
	if tmpBase != "" {
		if err := os.MkdirAll(tmpBase, 0o755); err != nil {
			fmt.Fprintln(stderr, "fgbench:", err)
			return 1
		}
	}
	tmpRoot, err := os.MkdirTemp(tmpBase, "fgbench-")
	if err != nil {
		fmt.Fprintln(stderr, "fgbench:", err)
		return 1
	}
	s := &session{opts: o, threads: threads, tmpRoot: tmpRoot, stdout: stdout, stderr: stderr}
	defer s.cleanup()
	defer s.handleSignals()()

	code := 0
	for _, w := range todo {
		var c int
		if o.selfcheck > 0 {
			c = s.selfcheck(w)
		} else {
			_, c = s.runOne(w, o.seed)
		}
		code = max(code, c)
	}
	return code
}

// session owns what must be undone on every exit path: the temp root, the
// watchdog and the signal handler.
type session struct {
	opts    options
	threads int
	tmpRoot string
	stdout  io.Writer
	stderr  io.Writer

	cleanOnce sync.Once
}

func (s *session) cleanup() {
	s.cleanOnce.Do(func() { os.RemoveAll(s.tmpRoot) })
}

// handleSignals removes the temp root before dying on SIGINT/SIGTERM; the
// returned stop function detaches the handler and ends its goroutine.
func (s *session) handleSignals() (stop func()) {
	ch := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		select {
		case sig := <-ch:
			fmt.Fprintf(s.stderr, "fgbench: %v: removing %s\n", sig, s.tmpRoot)
			s.cleanup()
			os.Exit(130)
		case <-done:
		}
	}()
	return func() { signal.Stop(ch); close(done) }
}

// watchdog kills the process when a run overstays twice its budget: it
// dumps every goroutine to stderr, removes the temp root and exits 3, so a
// hang is a loud failure instead of a process left running.
func (s *session) watchdog(budget time.Duration) (stop func()) {
	t := time.AfterFunc(2*budget, func() {
		fmt.Fprintf(s.stderr, "fgbench: watchdog: still running after %v (2x budget); goroutines:\n", 2*budget)
		pprof.Lookup("goroutine").WriteTo(s.stderr, 2)
		s.cleanup()
		os.Exit(3)
	})
	return func() { t.Stop() }
}

// budget is the wall time one run is expected to stay within: the timed
// sections, plus input generation and repeated set-up; a traced run adds
// the traced repeat, the probes and the passes that fill the other
// workloads' metrics.
func (s *session) budget() time.Duration {
	sec := s.opts.seconds + 15
	if s.opts.trace == 1 {
		sec = 2*s.opts.seconds + 45
	}
	return time.Duration(sec * float64(time.Second))
}

// runOne runs one workload once and prints its report and result line.
func (s *session) runOne(w workloadSpec, seed int64) (*Run, int) {
	stop := s.watchdog(s.budget())
	defer stop()
	resetPeakRSS()

	seconds := s.opts.seconds
	if s.opts.smoke {
		seconds = min(seconds, smokeSeconds)
	}
	r := s.newRun(w.Name, seed, s.opts.smoke, seconds, setupReps, s.opts.trace == 1)
	start := time.Now()
	err := w.run(r)
	if err == nil && r.trace {
		err = s.fillFromOtherWorkloads(r)
	}
	if err != nil {
		r.fail("run aborted: %v", err)
	}
	r.e2e["peak_rss_mb"] = Value{V: peakRSSMiB(), Unit: "MiB"}
	if r.trace {
		if err := s.writeTrace(r); err != nil {
			r.fail("writing trace: %v", err)
		}
	}
	if leftovers, _ := os.ReadDir(s.tmpRoot); len(leftovers) > 0 {
		r.fail("workload left %d entries under the temp root", len(leftovers))
	}
	s.report(r, time.Since(start))
	if len(r.failures) > 0 {
		return r, 1
	}
	return r, 0
}

func (s *session) newRun(workload string, seed int64, smoke bool, seconds float64, setups int, trace bool) *Run {
	r := &Run{
		Workload: workload, Seed: seed, Smoke: smoke, Seconds: seconds, Threads: s.threads, Setups: setups,
		tmpRoot: s.tmpRoot, trace: trace,
		e2e: map[string]Value{}, layer: map[string]Value{},
	}
	if trace {
		r.tr = harness.NewTracer(traceCapacity)
	}
	return r
}

// traceCapacity holds every span of the busiest traced run (serve_static:
// about 400k) with room to spare; 64 bytes each.
const traceCapacity = 1 << 19

// foreignSeed is the seed of the inputs behind a traced run's per-layer
// metrics that another workload owns.
const foreignSeed = 1

// fillFromOtherWorkloads completes a traced run's per-layer list. The
// driver's contract: "with --trace 1 [the metrics are] every per_layer
// metric", whichever workload ran, and each "a number as measured" (it
// rejects a time that reads the same on every run, so a constant will not
// do). A workload exercises only its own layers; the metrics the other
// workloads own come from one fixed, cheap source: each owner's traced pass
// on its smoke-size inputs from foreignSeed, one set-up, smokeSeconds long,
// whatever --seed and --seconds say (shorter, and the allocator metrics read
// a constant 0: no collection falls inside the pass). They are real
// measurements on tiny inputs: a liveness signal that reads alike on every
// row, not comparable with the owner's row.
func (s *session) fillFromOtherWorkloads(r *Run) error {
	for _, w := range workloads {
		if w.Name == r.Workload {
			continue
		}
		runtime.GC() // the native workload's heap would otherwise put off every collection a short pass should see
		sub := s.newRun(w.Name, foreignSeed, true, smokeSeconds, 1, true)
		if err := w.run(sub); err != nil {
			return fmt.Errorf("filling %s's metrics: %w", w.Name, err)
		}
		for _, m := range perLayer {
			if m.owner == w.Name {
				v := sub.layer[m.Name]
				v.From = "smoke:" + w.Name
				r.layer[m.Name] = v
			}
		}
		r.attempted += sub.attempted
		r.failed += sub.failed
		for _, f := range sub.failures {
			r.failures = append(r.failures, "smoke "+w.Name+": "+f)
		}
	}
	return nil
}

func (s *session) writeTrace(r *Run) error {
	path := s.opts.traceOut
	if path == "" {
		path = filepath.Join(filepath.Dir(s.tmpRoot), "trace-"+r.Workload+".json")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if r.tr.Dropped() > 0 {
		r.note("trace buffer dropped %d spans", r.tr.Dropped())
	}
	if err := harness.WriteTrace(f, r.Workload, r.tr.Spans(), r.tr.Dropped()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// env describes the host and build a result was measured on.
type env struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	PoolSize   int    `json:"workpool_size"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	Seed       int64  `json:"seed"`
}

func (s *session) env(seed int64) env {
	rev := os.Getenv("FGBENCH_GIT_REV")
	if rev == "" {
		rev = "unknown"
	}
	return env{
		CPUModel: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		PoolSize: workpool.Default().Size(), GoVersion: runtime.Version(), GitRev: rev, Seed: seed,
	}
}

func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// resetPeakRSS makes peak_rss_mb the peak of the run that follows, not of
// the process: -selfcheck and -workload all run several in one process. It
// returns freed memory to the system and resets the kernel's high-water
// mark; where the kernel does not allow that, the mark simply stays.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	data, _ := os.ReadFile("/proc/self/status")
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the line the contract asks for: every end-to-end
// metric of an untraced run, every per-layer metric of a traced one. A
// metric the run did not produce is a failure, not an omission.
func (r *Run) result() resultLine {
	specs, got := endToEnd, r.e2e
	if r.trace {
		specs, got = perLayer, r.layer
	}
	res := resultLine{Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]resultValue{}}
	for _, m := range specs {
		v, ok := got[m.Name]
		if !ok || v.V != v.V || v.V-v.V != 0 { // missing, NaN or Inf
			r.fail("metric %s was not produced", m.Name)
			v.V = 0
		}
		res.Metrics[m.Name] = resultValue{v.V, m.Unit}
	}
	res.Correct = len(r.failures) == 0
	return res
}

// report prints every metric by name with its unit — under the op slots,
// the names issue 12 gives the same samples — then the result line.
func (s *session) report(r *Run, wall time.Duration) {
	res := r.result()
	e := s.env(r.Seed)
	fmt.Fprintf(s.stdout, "fgbench %s seed=%d seconds=%g trace=%v smoke=%v wall=%.1fs\n", r.Workload, r.Seed, r.Seconds, r.trace, r.Smoke, wall.Seconds())
	envJSON, _ := json.Marshal(e)
	fmt.Fprintf(s.stdout, "env %s\n", envJSON)
	printValues(s.stdout, "end-to-end (untraced)", r.e2e)
	if r.trace {
		printValues(s.stdout, "per-layer", r.layer)
	} else {
		printValues(s.stdout, "by name, from the same untraced samples (the per-layer list of a traced run carries them)", r.layer)
	}
	for _, n := range r.notes {
		fmt.Fprintf(s.stdout, "note: %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(s.stdout, "FAILED: %s\n", f)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(s.stdout, "%s\n", line)
}

func printValues(w io.Writer, title string, vals map[string]Value) {
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:\n", title)
	for _, n := range names {
		v := vals[n]
		fmt.Fprintf(w, "  %-36s %14.6g %-9s", n, v.V, v.Unit)
		if v.N > 0 {
			fmt.Fprintf(w, " n=%d", v.N)
		}
		if v.Q1 != 0 || v.Q3 != 0 {
			fmt.Fprintf(w, " q1=%.6g med=%.6g q3=%.6g", v.Q1, v.Med, v.Q3)
		}
		if v.Alias != "" {
			fmt.Fprintf(w, " (%s)", v.Alias)
		}
		if v.From != "" {
			fmt.Fprintf(w, " [%s]", v.From)
		}
		fmt.Fprintln(w)
	}
}

// selfcheck runs w N times on this binary and applies the benchmark's own
// acceptance rule to itself: per end-to-end metric, the spread between the
// runs must stay within the metric's bound on this workload (spec.go), which
// is at most the bound BENCHMARK.json gives the metric on every workload.
func (s *session) selfcheck(w workloadSpec) int {
	code := 0
	values := map[string][]float64{}
	for i := 0; i < s.opts.selfcheck; i++ {
		r, c := s.runOne(w, s.opts.seed+int64(i))
		code = max(code, c)
		for name, v := range r.e2e {
			values[name] = append(values[name], v.V)
		}
	}
	fmt.Fprintf(s.stdout, "selfcheck %s: %d runs, seeds %d..%d\n", w.Name, s.opts.selfcheck, s.opts.seed, s.opts.seed+int64(s.opts.selfcheck)-1)
	fmt.Fprintf(s.stdout, "  %-12s %12s %12s %12s %8s %6s %9s\n", "metric", "min", "median", "max", "spread", "bound", "A/A bound")
	for i, m := range endToEnd {
		sum := harness.Summarize(values[m.Name])
		spread := harness.Spread(values[m.Name])
		bound := w.bounds[i]
		verdict := ""
		if m.Name != "setup_s" && spread > bound { // the contract exempts setup_s from the spread rule
			verdict = "  SPREAD > BOUND"
			code = max(code, 1)
		}
		suggested, _ := harness.BoundFor(spread)
		fmt.Fprintf(s.stdout, "  %-12s %12.6g %12.6g %12.6g %8.4f %6.2f %9.2f%s\n", m.Name, sum.Min, sum.Median, sum.Max, spread, bound, suggested, verdict)
	}
	return code
}
