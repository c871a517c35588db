package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"featgraph"
	"featgraph/benchmark/harness"
	"featgraph/internal/sample"
	"featgraph/internal/sparse"
	"featgraph/internal/telemetry"
)

// serve_mutating: serve_static's phase C, but through a durable mutable
// graph and a dynamic batcher. A fifth of the run is quiescent (no writer),
// the rest has one writer committing edge deltas.

// edgeSet mirrors the engine's live edge set, so the writer only proposes
// valid batches and the final topology can be rebuilt from scratch. Keys
// are (dst, src), the CSR orientation.
type edgeSet struct {
	n    int32
	keys [][2]int32
	idx  map[[2]int32]int
	val  map[[2]int32]float32
}

func newEdgeSet(adj *sparse.CSR) *edgeSet {
	s := &edgeSet{n: int32(adj.NumRows), idx: make(map[[2]int32]int, adj.NNZ()), val: make(map[[2]int32]float32, adj.NNZ())}
	for dst := 0; dst < adj.NumRows; dst++ {
		for q := adj.RowPtr[dst]; q < adj.RowPtr[dst+1]; q++ {
			s.add([2]int32{int32(dst), adj.ColIdx[q]}, adj.Val[q])
		}
	}
	return s
}

func (s *edgeSet) add(k [2]int32, v float32) {
	s.idx[k] = len(s.keys)
	s.keys = append(s.keys, k)
	s.val[k] = v
}

func (s *edgeSet) remove(k [2]int32) {
	i, last := s.idx[k], len(s.keys)-1
	s.keys[i] = s.keys[last]
	s.idx[s.keys[i]] = i
	s.keys = s.keys[:last]
	delete(s.idx, k)
	delete(s.val, k)
}

// propose draws n present edges to delete and n absent pairs to insert.
func (s *edgeSet) propose(rng *rand.Rand, n int) featgraph.DeltaBatch {
	var b featgraph.DeltaBatch
	taken := map[[2]int32]bool{}
	for len(b.Delete) < n {
		k := s.keys[rng.Intn(len(s.keys))]
		if !taken[k] {
			taken[k] = true
			b.Delete = append(b.Delete, featgraph.EdgeDelta{Src: k[1], Dst: k[0]})
		}
	}
	for len(b.Insert) < n {
		k := [2]int32{rng.Int31n(s.n), rng.Int31n(s.n)}
		if _, present := s.idx[k]; !present && !taken[k] {
			taken[k] = true
			b.Insert = append(b.Insert, featgraph.EdgeDelta{Src: k[1], Dst: k[0], Val: rng.Float32() + 0.5})
		}
	}
	return b
}

func (s *edgeSet) apply(b featgraph.DeltaBatch) {
	for _, e := range b.Delete {
		s.remove([2]int32{e.Dst, e.Src})
	}
	for _, e := range b.Insert {
		s.add([2]int32{e.Dst, e.Src}, e.Val)
	}
}

// rebuild constructs the topology from scratch: row-major, edge ids in that
// order, which is the canonical form the engine materialises.
func (s *edgeSet) rebuild() (*sparse.CSR, error) {
	keys := append([][2]int32(nil), s.keys...)
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	coo := &sparse.COO{NumRows: int(s.n), NumCols: int(s.n), Row: make([]int32, len(keys)), Col: make([]int32, len(keys)), Val: make([]float32, len(keys))}
	for i, k := range keys {
		coo.Row[i], coo.Col[i], coo.Val[i] = k[0], k[1], s.val[k]
	}
	return sparse.FromCOO(coo)
}

func sameCSR(a, b *sparse.CSR) bool {
	if a.NumRows != b.NumRows || a.NumCols != b.NumCols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] || a.EID[i] != b.EID[i] || a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}

// mutServer is one set-up: the durable graph, its directory and batcher.
type mutServer struct {
	dir string
	mg  *featgraph.MutableGraph
	b   *featgraph.Batcher
}

func (m *mutServer) close() {
	m.b.Close()
	m.mg.Close() // the log's close error changes nothing the run reports
	os.RemoveAll(m.dir)
}

const (
	// quietShare is the share of the run served with the writer idle.
	quietShare = 0.2
	// visibleQuantile is the quantile reported of the commit-to-visible time.
	visibleQuantile = 0.8
)

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// commitRec is one commit as the writer saw it.
type commitRec struct {
	ack     time.Time
	latency time.Duration // ApplyDelta call → ack
	version uint64
}

// writer commits one batch every period until stop closes, tracking the
// edge set. It returns its commits and the first rejected one.
func writer(mg *featgraph.MutableGraph, set *edgeSet, rng *rand.Rand, edges int, period time.Duration, start time.Time, stop <-chan struct{}) (recs []commitRec, err error) {
	clk := harness.RealClock{}
	for k := 0; ; k++ {
		if wait := time.Until(start.Add(time.Duration(k) * period)); wait > 0 {
			clk.Sleep(wait)
		}
		select {
		case <-stop:
			return recs, err
		default:
		}
		batch := set.propose(rng, edges)
		t0 := time.Now()
		ver, cerr := mg.ApplyDelta(batch)
		done := time.Now()
		if cerr != nil {
			if err == nil {
				err = cerr
			}
			recs = append(recs, commitRec{ack: done, latency: -1})
			continue
		}
		set.apply(batch)
		recs = append(recs, commitRec{ack: done, latency: done.Sub(t0), version: ver})
	}
}

func runServeMutating(r *Run) error {
	in := newServeInputs(r)
	p := in.p
	set := newEdgeSet(in.adj)

	srvs, err := repeatSetup(r, func() (*mutServer, error) {
		g, err := featgraph.GraphFromCSR(in.adj)
		if err != nil {
			return nil, err
		}
		dir, err := r.tempDir("delta-")
		if err != nil {
			return nil, err
		}
		mg, err := featgraph.NewMutableGraph(g, featgraph.WithDeltaDir(dir))
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		b, err := featgraph.NewDynamicBatcher(mg, in.feats, in.model, in.config(r, p.window))
		if err != nil {
			mg.Close()
			os.RemoveAll(dir)
			return nil, err
		}
		srv := &mutServer{dir: dir, mg: mg, b: b}
		warm := *r // a copy: warm-up requests are neither traced nor counted
		warm.tr = nil
		if err := in.openLoop(&warm, b, "warmup", p.rateM, p.warm, 0, hooks{}).firstError(); err != nil {
			srv.close()
			return nil, err
		}
		return srv, nil
	}, (*mutServer).close)
	for _, srv := range srvs {
		defer srv.close()
	}
	if err != nil {
		return err
	}
	srv := srvs[0]

	var seen atomic.Uint64 // newest version any reply has carried
	writerRng := r.rng(6)
	r.primarySpan = "M"
	err = r.withTrace(func(traced bool) (float64, error) {
		// The compaction counter only counts while telemetry is on, so it is on
		// for the whole traced pass, control stripes included: its cost is in
		// the note's pass-against-pass figure, not in trace.overhead_frac.
		if traced {
			telemetry.SetEnabled(true)
			defer telemetry.SetEnabled(false)
		}
		compactions, _ := telemetry.Value("featgraph_delta_compactions_total")

		// Quiescent first: what the dynamic path costs with nothing to absorb.
		quiet := in.openLoop(r, srv.b, "Q", p.rateM, r.slice(quietShare), 0, hooks{})

		stop := make(chan struct{})
		var commits []commitRec
		var commitErr error
		var wg sync.WaitGroup
		wg.Add(1)
		start := time.Now()
		go func() {
			defer wg.Done()
			commits, commitErr = writer(srv.mg, set, writerRng, p.commitEdges, p.commitEvery, start, stop)
		}()
		// Reads are monotonic: a request sent after some reply carried version
		// v must itself be answered from v or newer, and never from beyond
		// the committed tip.
		var regressions, beyondTip atomic.Int64
		ph := in.openLoop(r, srv.b, "M", p.rateM, r.slice(1-quietShare), len(quiet.sent), hooks{
			before: func(o *outcome) { o.floor = seen.Load() },
			after: func(o *outcome) {
				if o.err != nil {
					return
				}
				o.tip = srv.mg.Version()
				if o.info.GraphVersion < o.floor {
					regressions.Add(1)
				}
				if o.info.GraphVersion > o.tip {
					beyondTip.Add(1)
				}
				for cur := seen.Load(); o.info.GraphVersion > cur && !seen.CompareAndSwap(cur, o.info.GraphVersion); {
					cur = seen.Load()
				}
			},
		})
		close(stop)
		wg.Wait()

		r.attempted += int64(len(commits)) + 2
		if commitErr != nil {
			r.fail("a commit was rejected: %v", commitErr)
		}
		if n := regressions.Load(); n > 0 {
			r.fail("%d replies came from an older version than a reply that preceded their request", n)
		}
		if n := beyondTip.Load(); n > 0 {
			r.fail("%d replies carried a version beyond the committed tip", n)
		}
		if err := errors.Join(quiet.firstError(), ph.firstError()); err != nil {
			r.note("first request error: %v", err)
		}

		var commitMs []float64
		for _, c := range commits {
			if c.latency < 0 {
				r.failed++
				continue
			}
			commitMs = append(commitMs, harness.Ms(c.latency))
			if r.tr != nil {
				r.tr.Record("featgraph.MutableGraph.ApplyDelta", "delta", c.ack.Add(-c.latency), c.latency, harness.NoSpan, int64(c.version))
			}
		}
		t := ph.tails()
		if traced {
			after, _ := telemetry.Value("featgraph_delta_compactions_total")
			r.setLayer("delta.compactions", "count", after-compactions)
			return t.all.Median, nil
		}
		visible := visibility(ph, commits)
		r.e2e["op1_ms"] = summaryValue(t.all, "ms", fmt.Sprintf("p50 at %g req/s under commits", p.rateM))
		// The p90, not the p95: over five sets of ten runs of one binary the
		// p95's spread was 0.08 to 0.22 (0.26 in a set of the driver's, past any
		// bound the contract allows) and the p90's 0.08 to 0.16. README.md.
		r.e2e["op2_ms"] = Value{V: t.p90, Unit: "ms", N: t.windows, Alias: fmt.Sprintf("p90 at %g req/s under commits, median over %v windows", p.rateM, tailWindow)}
		r.e2e["op3_ms"] = summaryValue(quiet.tails().all, "ms", fmt.Sprintf("p50 at %g req/s with the writer idle", p.rateM))
		// The 80th percentile, not the median or the mean: the distribution has
		// two modes (the next batch picks the version up, or the one after
		// does), the median sits on the edge between them, and the mean follows
		// the few commits that land beside a stall. The p80 is the middle of
		// the slower mode.
		sort.Float64s(visible)
		vis := summaryValue(harness.Summarize(visible), "ms", "p80 of the time from commit ack to the first reply served from it")
		vis.V = harness.Quantile(visible, visibleQuantile)
		r.e2e["op4_ms"] = vis
		median(r.layer, "delta.commit_lat_p50_ms", "ms", "", commitMs)
		r.setLayer("serve.mut_lat_p50_ms", "ms", t.all.Median)
		r.setLayer("serve.mut_lat_p90_ms", "ms", t.p90)
		r.setLayer("serve.mut_lat_p95_ms", "ms", t.p95)
		r.setLayer("serve.mut_lat_p99_ms", "ms", t.p99)
		r.setLayer("serve.mut_quiet_p50_ms", "ms", r.e2e["op3_ms"].V)
		r.setLayer("delta.visible_p80_ms", "ms", vis.V)
		r.setLayer("delta.visible_mean_ms", "ms", mean(visible))
		if n := len(commits); n > 1 {
			r.setLayer("delta.commits_per_s", "1/s", float64(n-1)/commits[n-1].ack.Sub(commits[0].ack).Seconds())
		}
		var lag float64
		built, ok := 0, 0
		for _, o := range ph.got {
			if o.err == nil {
				lag += float64(o.tip - o.info.GraphVersion)
				built = max(built, o.info.PlanBuilt)
				ok++
			}
		}
		r.setLayer("delta.version_lag_mean", "count", lag/float64(ok))
		r.setLayer("serve.mut_plan_built", "count", float64(built))
		return t.all.Median, nil
	})
	if err != nil {
		return err
	}

	// The committed tip must be exactly the graph the writer believes in.
	r.attempted++
	snap, err := srv.mg.Snapshot()
	if err != nil {
		return err
	}
	want, err := set.rebuild()
	if err != nil {
		snap.Release()
		return err
	}
	if !sameCSR(snap.CSR(), want) {
		r.fail("tip snapshot (version %d) differs from a from-scratch build of the writer's edge set", snap.Version())
	}
	snap.Release()
	if r.trace {
		return in.probeDelta(r, srv, r.layer["delta.commit_lat_p50_ms"].V)
	}
	return nil
}

// visibility returns, per commit, how long after its acknowledgement the
// first reply served from that version (or a newer one) arrived.
func visibility(ph *phase, commits []commitRec) []float64 {
	type reply struct {
		done    time.Duration
		version uint64
	}
	var replies []reply
	for i, s := range ph.sent {
		if !s.Shed && ph.got[i].err == nil {
			replies = append(replies, reply{s.Done, ph.got[i].info.GraphVersion})
		}
	}
	sort.Slice(replies, func(i, j int) bool { return replies[i].done < replies[j].done })
	var out []float64
	next := 0
	for _, c := range commits {
		if c.latency < 0 {
			continue
		}
		for next < len(replies) && replies[next].version < c.version {
			next++
		}
		if next == len(replies) {
			break // committed too close to the end of the phase to be served
		}
		out = append(out, harness.Ms(ph.start.Add(replies[next].done).Sub(c.ack)))
	}
	return out
}

// probeDelta measures the delta layer's pieces on a second, non-durable
// graph and on the live one: the in-memory share of a commit (the rest of
// a durable commit is the log), pinning, materialisation, and the sampler
// rebuild every new version costs the batcher.
func (in *serveInputs) probeDelta(r *Run, srv *mutServer, durableCommitMs float64) error {
	g, err := featgraph.GraphFromCSR(in.adj)
	if err != nil {
		return err
	}
	mem, err := featgraph.NewMutableGraph(g)
	if err != nil {
		return err
	}
	defer mem.Close()
	set := newEdgeSet(in.adj)
	rng := r.rng(9)
	var commitUs, matMs []float64
	for start := time.Now(); time.Since(start) < r.slice(0.1) || len(commitUs) < 5; {
		batch := set.propose(rng, in.p.commitEdges)
		r.attempted++
		ms := r.span("featgraph.MutableGraph.ApplyDelta(in memory)", "delta", func() { _, err = mem.ApplyDelta(batch) })
		if err != nil {
			return err
		}
		set.apply(batch)
		commitUs = append(commitUs, ms*1e3)
		snap, err := mem.Snapshot()
		if err != nil {
			return err
		}
		matMs = append(matMs, r.span("featgraph.GraphSnapshot.CSR", "delta", func() { snap.CSR() }))
		snap.Release()
	}
	memUs := median(r.layer, "delta.commit_mem_us", "us", "", commitUs)
	r.setLayer("delta.wal_ms", "ms", durableCommitMs-memUs/1e3)
	median(r.layer, "delta.materialize_ms", "ms", "", matMs)

	// Both take tens of nanoseconds, below what one clock reading resolves,
	// so each sample times a thousand of them.
	const batch = 1000
	var pinUs, trustedMs []float64
	for i := 0; i < 50; i++ {
		ms := r.span("featgraph.MutableGraph.PinGraph x1000", "delta", func() {
			for j := 0; j < batch && err == nil; j++ {
				var release func()
				if _, _, release, err = srv.mg.PinGraph(); err == nil {
					release()
				}
			}
		})
		if err != nil {
			return err
		}
		pinUs = append(pinUs, ms*1e3/batch)
	}
	pinned, _, release, err := srv.mg.PinGraph()
	if err != nil {
		return err
	}
	defer release()
	for i := 0; i < 30; i++ {
		ms := r.span("sample.NewTrusted x1000", "sample", func() {
			for j := 0; j < batch && err == nil; j++ {
				_, err = sample.NewTrusted(pinned.CSR(), sample.Config{Fanouts: in.p.fanouts, Seed: r.Seed})
			}
		})
		if err != nil {
			return err
		}
		trustedMs = append(trustedMs, ms/batch)
	}
	median(r.layer, "delta.pin_us", "us", "", pinUs)
	median(r.layer, "sample.new_trusted_ms", "ms", "", trustedMs)
	return nil
}
