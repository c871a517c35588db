package harness

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.25, 3}, {0.75, 8}, {0.99, 10}, {0, 1}, {1, 10}} {
		if got := Quantile(s, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of nothing should be NaN")
	}
}

func TestBeyondCountsSamplesPastThePercentile(t *testing.T) {
	// p99 of 1000 samples is the 990th; 10 lie beyond it. 999 samples give 9.
	if got := Beyond(1000, 0.99); got != 10 {
		t.Errorf("Beyond(1000, .99) = %d, want 10", got)
	}
	if got := Beyond(999, 0.99); got != 9 {
		t.Errorf("Beyond(999, .99) = %d, want 9", got)
	}
}

func TestSummarizeLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	s := Summarize(xs)
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Median != 2.5 || s.Q1 != 1 || s.Q3 != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if xs[0] != 3 {
		t.Error("Summarize reordered its input")
	}
}

func TestWindowedQuantileSkipsThinWindowsAndTakesTheMedian(t *testing.T) {
	var samples []Timed
	add := func(window, n int, lat float64) {
		for i := 0; i < n; i++ {
			samples = append(samples, Timed{Due: time.Duration(window)*time.Second + time.Duration(i)*time.Microsecond, Latency: lat})
		}
	}
	// Three full windows whose p99 are 1, 2 and 50 (one bad second), and a
	// fourth with 999 samples: 9 beyond its p99, one short, so it is skipped.
	add(0, 1000, 1)
	add(1, 1000, 2)
	add(2, 1000, 50)
	add(3, 999, 1000)
	got, windows := WindowedQuantile(samples, time.Second, 0.99, 10)
	if windows != 3 || got != 2 {
		t.Errorf("WindowedQuantile = %v over %d windows, want 2 over 3", got, windows)
	}
}

func TestWindowedQuantileCountsFailuresAsInfinite(t *testing.T) {
	var samples []Timed
	for i := 0; i < 1000; i++ {
		lat := 1.0
		if i%50 == 0 { // 2% failed: they sit beyond p99 and pull it to +Inf
			lat = math.Inf(1)
		}
		samples = append(samples, Timed{Due: time.Duration(i) * time.Microsecond, Latency: lat})
	}
	if got, _ := WindowedQuantile(samples, time.Second, 0.99, 10); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf", got)
	}
}

// fakeClock advances only when slept on, by the requested time plus a
// fixed oversleep.
type fakeClock struct {
	mu        sync.Mutex
	now       time.Time
	oversleep time.Duration
	onSleep   func(call int)
	sleeps    int
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d + c.oversleep)
	c.sleeps++
	call, hook := c.sleeps, c.onSleep
	c.mu.Unlock()
	if hook != nil {
		hook(call)
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestOpenLoopTimesFromDueAndReportsLateness(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0), oversleep: 3 * time.Millisecond}
	dues := make([]time.Time, 7) // each request writes its own element
	start, sent := OpenLoop(clk, 1000, 7, 100, func(i int, due time.Time) { dues[i] = due })
	// 1 ms apart. The first sleep (1 ms asked) lands at 4 ms, so requests
	// 1..4 go out together, late by 3, 2, 1 and 0 ms; then it repeats.
	wantSent := []int{0, 4, 4, 4, 4, 8, 8}
	for i, s := range sent {
		if s.Due != time.Duration(i)*time.Millisecond || !dues[i].Equal(start.Add(s.Due)) {
			t.Errorf("request %d due %v, told %v", i, s.Due, dues[i].Sub(start))
		}
		if s.Sent != time.Duration(wantSent[i])*time.Millisecond {
			t.Errorf("request %d sent at %v, want %d ms", i, s.Sent, wantSent[i])
		}
		if s.Done < s.Sent || s.Shed {
			t.Errorf("request %d: %+v", i, s)
		}
	}
}

func TestOpenLoopKeepsScheduleWhenAReplyStalls(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	release := make(chan struct{})
	var others sync.WaitGroup
	const n = 20
	others.Add(n - 1)
	go func() { // once every other request has been answered, an hour passes
		others.Wait()
		clk.advance(time.Hour)
		close(release)
	}()
	_, sent := OpenLoop(clk, 100, n, n, func(i int, _ time.Time) {
		if i == 0 {
			<-release
			return
		}
		others.Done()
	})
	for i, s := range sent {
		if s.Sent != s.Due {
			t.Errorf("request %d was sent %v late behind a stalled reply", i, s.Sent-s.Due)
		}
	}
	if lat := sent[0].Done - sent[0].Due; lat < time.Hour {
		t.Errorf("stalled request's latency %v does not include its stall", lat)
	}
}

func TestOpenLoopShedsAtTheInFlightCap(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	release := make(chan struct{})
	clk.onSleep = func(call int) {
		if call == 5 { // the sleep before request 5: 0 and 1 still hold both slots
			close(release)
		}
	}
	_, sent := OpenLoop(clk, 100, 6, 2, func(int, time.Time) { <-release })
	for i, want := range []bool{false, false, true, true, true} {
		if sent[i].Shed != want {
			t.Errorf("request %d shed = %v, want %v", i, sent[i].Shed, want)
		}
	}
}

func TestSelfTimeWithNestedAndOverlappingChildren(t *testing.T) {
	spans := []Span{
		{Name: "root", Layer: "bench", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", Layer: "serve", StartNs: 10, EndNs: 50, Parent: 0},
		{Name: "b", Layer: "serve", StartNs: 40, EndNs: 70, Parent: 0},    // overlaps a by 10
		{Name: "c", Layer: "core", StartNs: 20, EndNs: 30, Parent: 1},     // nested in a
		{Name: "d", Layer: "core", StartNs: 90, EndNs: 120, Parent: 0},    // runs past root: clipped
		{Name: "e", Layer: "delta", StartNs: 200, EndNs: 230, Parent: -1}, // a second root
	}
	want := []int64{
		100 - (60 + 10), // a∪b covers 10..70, d covers 90..100
		40 - 10,
		30,
		10,
		30,
		30,
	}
	got := SelfNs(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	by := SelfMsByLayer(spans)
	if by["serve"] != 60e-6 || by["core"] != 40e-6 {
		t.Errorf("SelfMsByLayer = %v", by)
	}
}

func TestTracerRecordsParentsAndDropsPastCapacity(t *testing.T) {
	var none *Tracer
	none.End(none.Begin("x", "y", NoSpan, 0)) // a nil tracer is a no-op
	if none.Spans() != nil || none.Dropped() != 0 {
		t.Error("nil tracer recorded something")
	}
	tr := NewTracer(2)
	root := tr.Begin("op", "bench", NoSpan, 7)
	child := tr.Record("queued", "serve", time.Now(), time.Millisecond, root, 7)
	tr.End(root)
	if h := tr.Begin("late", "bench", NoSpan, 8); h != NoSpan {
		t.Errorf("span past capacity got handle %d", h)
	}
	spans := tr.Spans()
	if len(spans) != 2 || tr.Dropped() != 1 {
		t.Fatalf("%d spans, %d dropped", len(spans), tr.Dropped())
	}
	if spans[child].Parent != root || spans[child].OpID != 7 || spans[child].EndNs-spans[child].StartNs != int64(time.Millisecond) {
		t.Errorf("child span %+v", spans[child])
	}
	if spans[root].EndNs < spans[root].StartNs {
		t.Errorf("root span not closed: %+v", spans[root])
	}
}

func TestComputedBytesPerEdge(t *testing.T) {
	// 10 rows, 100 edges, width 64. GCN: 4 + 256 per edge, (4+256) per row.
	if got, want := SpMMCopySumBytesPerEdge(10, 100, 64), 260+0.1*260; math.Abs(got-want) > 1e-9 {
		t.Errorf("SpMM bytes/edge = %v, want %v", got, want)
	}
	// Dot: 4+4+512+4 per edge, 4 per row.
	if got, want := SDDMMDotBytesPerEdge(10, 100, 64), 524+0.1*4; math.Abs(got-want) > 1e-9 {
		t.Errorf("SDDMM bytes/edge = %v, want %v", got, want)
	}
	// Fused: 4+4+512+8 per edge, (4+512) per row.
	if got, want := FusedAttnBytesPerEdge(10, 100, 64), 528+0.1*516; math.Abs(got-want) > 1e-9 {
		t.Errorf("fused bytes/edge = %v, want %v", got, want)
	}
}

func TestTriadReportsAPlausibleRate(t *testing.T) {
	if gbs := Triad(1<<16, 2, 2); !(gbs > 0.01 && gbs < 1e4) {
		t.Errorf("Triad = %v GB/s", gbs)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vals := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := Spread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread = %v, want %v", got, want)
	}
	// Three runs: the range over the median.
	if got, want := Spread([]float64{100, 104, 98}), 6.0/100; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread of three = %v, want %v", got, want)
	}
}

func TestBoundRule(t *testing.T) {
	for _, c := range []struct {
		spread float64
		bound  float64
		ok     bool
	}{
		{0.01, 0.10, true},  // quiet: the default
		{0.05, 0.10, true},  // 2 x 0.05 is the default exactly
		{0.051, 0.15, true}, // 0.102 rounds up to the next 0.05
		{0.11, 0.25, true},  // 0.22 -> 0.25
		{0.125, 0.25, true}, // exactly the cap
		{0.13, 0.25, false}, // 0.26 does not fit: not an end-to-end metric
	} {
		bound, ok := BoundFor(0.001, c.spread)
		if math.Abs(bound-c.bound) > 1e-9 || ok != c.ok {
			t.Errorf("BoundFor(%v) = %v, %v; want %v, %v", c.spread, bound, ok, c.bound, c.ok)
		}
	}
}
