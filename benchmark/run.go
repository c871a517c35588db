package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"featgraph/benchmark/harness"
	"featgraph/internal/tensor"
)

// smokeSeconds is the timed length of a -smoke run.
const smokeSeconds = 1.0

// setupReps is how many times a workload sets up from scratch; setup_s is
// the median, so one slow page-fault storm does not decide it.
//
// The kernel, training and out-of-core workloads keep all setupReps states
// and visit each timed section once per state, a setupReps-th of the
// section's share per visit. A pass's time depends on where the allocator
// happened to put the kernel's buffers (a probe saw the same MLP kernel at
// 162 to 194 ms across eight allocations in one process), which is noise to
// anyone comparing two versions of the code; and a disturbance that lasts a
// few seconds then touches part of every section instead of all of one.
const setupReps = 3

// series is one timed section's samples, one slice per visit.
type series [][]float64

func (s series) all() []float64 {
	var out []float64
	for _, visit := range s {
		out = append(out, visit...)
	}
	return out
}

// value is the mean over visits of each visit's lower quartile. A pass is
// the same computation every time, so what differs between passes of one
// visit is what the host added; the lower quartile leaves out the passes a
// neighbour slowed without resting on the single fastest one, and over three
// sets of ten runs its spread was 0.5 to 0.8 of the median's (0.13 against
// 0.39 in a set half of which fell into a slow minute of the host). The
// mean averages the memory layouts.
func (s series) value() float64 {
	sum := 0.0
	for _, visit := range s {
		sum += harness.Summarize(visit).Q1
	}
	return sum / float64(len(s))
}

// record stores s under name as its value, with the pooled samples' count
// and quartiles, and returns the value.
func (s series) record(into map[string]Value, name, unit, alias string) float64 {
	v := summaryValue(harness.Summarize(s.all()), unit, alias)
	v.V = s.value()
	into[name] = v
	return v.V
}

// Value is one reported number with what is known about its samples.
type Value struct {
	V     float64
	Unit  string
	N     int     // samples behind V, when V is an order statistic
	Q1    float64 // their quartiles
	Med   float64
	Q3    float64
	Alias string // what an op slot means on this workload
	From  string // "smoke:<workload>" when another workload's smoke pass measured it
}

// Run is one execution of one workload: its parameters, and what it found.
type Run struct {
	Workload string
	Seed     int64
	Smoke    bool
	Seconds  float64 // total length of the timed sections
	Threads  int     // GOMAXPROCS, and NumThreads of every kernel
	Setups   int     // set-ups from scratch: setupReps, or 1 in a pass that only fills another run's metrics

	tmpRoot string
	trace   bool

	// tr is nil on an untraced run, and while a traced run repeats its
	// timed sections with tracing off; every recording call is a no-op then.
	tr  *harness.Tracer
	ops int64 // op ids handed to spans

	// primarySpan names the section (or open-loop phase) behind the workload's
	// op1_ms; its traced and control samples are kept apart for
	// trace.overhead_frac.
	primarySpan         string
	tracedMs, controlMs []float64

	e2e       map[string]Value
	layer     map[string]Value
	attempted int64
	failed    int64
	failures  []string
	notes     []string
}

// fail records a failed correctness check; the run exits non-zero.
func (r *Run) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
	r.failed++
}

func (r *Run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// rng returns the generator for one named input stream of this run, so
// adding a stream never shifts the others.
func (r *Run) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(r.Seed*1000 + stream))
}

// tempDir creates a directory under the session's temp root; the caller
// removes it before the workload returns.
func (r *Run) tempDir(pattern string) (string, error) {
	return os.MkdirTemp(r.tmpRoot, pattern)
}

// slice is the length of a timed section given as a share of the run's
// seconds; a traced run spends half on the untraced pass and half on the
// traced repeat.
func (r *Run) slice(share float64) time.Duration {
	sec := r.Seconds * share
	if r.trace {
		sec /= 2
	}
	return time.Duration(sec * float64(time.Second))
}

// visit is the length of one set-up's visit to a timed section.
func (r *Run) visit(share float64) time.Duration { return r.slice(share / float64(r.Setups)) }

// median records xs under name and returns their median.
func median(into map[string]Value, name, unit, alias string, xs []float64) float64 {
	s := harness.Summarize(xs)
	into[name] = summaryValue(s, unit, alias)
	return s.Median
}

func summaryValue(s harness.Summary, unit, alias string) Value {
	return Value{V: s.Median, Unit: unit, N: s.N, Q1: s.Q1, Med: s.Median, Q3: s.Q3, Alias: alias}
}

func (r *Run) setLayer(name, unit string, v float64) {
	r.layer[name] = Value{V: v, Unit: unit}
}

// repeatSetup runs build r.Setups times, records the median build time as
// setup_s and returns the states. With discard set, each state but the last
// is discarded before the next is built and only the last is returned; the
// serving workloads do that, because a batcher owns a goroutine. Input
// generation is not part of build: it is the benchmark's own work,
// identical on both sides of any comparison, and would only dilute the
// set-up cost of the code under test.
func repeatSetup[T any](r *Run, build func() (T, error), discard func(T)) ([]T, error) {
	var states []T
	var secs []float64
	for i := 0; i < r.Setups; i++ {
		if discard != nil && len(states) > 0 {
			discard(states[0])
			states = states[:0]
		}
		start := time.Now()
		st, err := build()
		if err != nil {
			return states, fmt.Errorf("set-up %d: %w", i, err) // the caller tears down what was built
		}
		secs = append(secs, time.Since(start).Seconds())
		states = append(states, st)
	}
	median(r.e2e, "setup_s", "s", "", secs)
	return states, nil
}

// passes calls f back to back for d (and at least minPasses times) and
// returns each call's duration in milliseconds. Every call is one
// attempted operation; a failing call ends the section. Traced, each call
// is an op span of the benchmark with one child span named span in layer —
// except that in the section named by r.primarySpan every other call runs
// with the tracer detached, so the section carries its own untraced control
// and the tracing overhead is not confounded with drift between two passes
// seconds apart.
func (r *Run) passes(d time.Duration, minPasses int, span, layer string, f func() error) ([]float64, error) {
	ms := make([]float64, 0, 4096) // no growth inside the section: allocation there is measured
	for start := time.Now(); time.Since(start) < d || len(ms) < minPasses; {
		tr := r.tr
		control := tr != nil && span == r.primarySpan && len(ms)%2 == 1
		if control {
			tr = nil
		}
		r.ops++
		root := tr.Begin("pass", "bench", harness.NoSpan, r.ops)
		child := tr.Begin(span, layer, root, r.ops)
		t0 := time.Now()
		err := f()
		el := time.Since(t0)
		tr.End(child)
		tr.End(root)
		r.attempted++
		if err != nil {
			r.failed++
			return ms, fmt.Errorf("%s pass %d: %w", span, len(ms), err)
		}
		ms = append(ms, harness.Ms(el))
		switch {
		case control:
			r.controlMs = append(r.controlMs, harness.Ms(el))
		case tr != nil && span == r.primarySpan:
			r.tracedMs = append(r.tracedMs, harness.Ms(el))
		}
	}
	return ms, nil
}

// withTrace runs body with tracing off, then — on a traced run — again
// with spans recorded, and reports the tracing overhead on the workload's
// primary end-to-end metric from the control samples interleaved with the
// traced ones (see passes and openLoop). The difference between the two
// runs of body is printed beside it as a note: it carries the drift between
// two passes seconds apart, which on this host is larger than the overhead.
// body must record end-to-end metrics only when traced is false.
func (r *Run) withTrace(body func(traced bool) (primaryMs float64, err error)) error {
	tr := r.tr
	r.tr = nil
	plain, err := body(false)
	r.tr = tr
	if err != nil || !r.trace {
		return err
	}
	traced, err := body(true)
	if err != nil {
		return err
	}
	sequential := (traced - plain) / plain
	if len(r.controlMs) > 0 {
		traced, plain = harness.Median(r.tracedMs), harness.Median(r.controlMs)
		r.note("trace overhead: %+.4f against the interleaved control (%d traced, %d control samples); the traced pass against the untraced pass before it: %+.4f, drift included",
			(traced-plain)/plain, len(r.tracedMs), len(r.controlMs), sequential)
	} else {
		r.note("trace overhead: the phase is too short for a control stripe; %+.4f is the traced pass against the untraced pass before it, drift included", sequential)
	}
	r.setLayer(traceOverhead.Name, traceOverhead.Unit, (traced-plain)/plain)
	return nil
}

// span runs f as one root span; probes use it so the trace file shows
// every call the per-layer numbers came from.
func (r *Run) span(name, layer string, f func()) float64 {
	h := r.tr.Begin(name, layer, harness.NoSpan, -1)
	t0 := time.Now()
	f()
	ms := harness.Ms(time.Since(t0))
	r.tr.End(h)
	return ms
}

// memDelta measures what f allocated: objects, bytes and GC pause time.
func memDelta(f func()) (allocs, bytes uint64, pause time.Duration) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, time.Duration(b.PauseTotalNs - a.PauseTotalNs)
}

func uniform(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.FillUniform(rng, -1, 1)
	return t
}

func medgesPerS(nnz int, passMs float64) float64 { return float64(nnz) / passMs / 1e3 }
