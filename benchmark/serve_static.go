package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"featgraph"
	"featgraph/benchmark/harness"
	"featgraph/internal/tensor"
)

// serve_static: micro-batched serving on a fixed graph. Phase A is a closed
// loop (capacity), phase B an open loop at a rate that builds large batches,
// phase C an open loop at a rate where latency is the batching window plus
// one small batch — the quiescent twin of serve_mutating.

func runServeStatic(r *Run) error {
	in := newServeInputs(r)
	p := in.p
	warm := func(b *featgraph.Batcher) error {
		// Compile the plan classes every phase will meet, outside the timing;
		// the copy of r keeps warm-up requests out of the trace and the counts.
		w := *r
		w.tr = nil
		in.closedLoop(&w, b, p.warm)
		if err := in.openLoop(&w, b, "warmup", p.rateB, p.warm, 0, hooks{}).firstError(); err != nil {
			return err
		}
		return in.openLoop(&w, b, "warmup", p.rateC, p.warm, 0, hooks{}).firstError()
	}
	bs, err := repeatSetup(r, func() (*featgraph.Batcher, error) {
		g, err := featgraph.GraphFromCSR(in.adj)
		if err != nil {
			return nil, err
		}
		b, err := featgraph.NewBatcher(g, in.feats, in.model, in.config(r, p.window))
		if err != nil {
			return nil, err
		}
		if err := warm(b); err != nil {
			b.Close()
			return nil, err
		}
		return b, nil
	}, (*featgraph.Batcher).Close)
	for _, b := range bs {
		defer b.Close()
	}
	if err != nil {
		return err
	}
	b := bs[0]

	// The requests whose rows the bitwise check re-runs alone: fixed
	// positions of phase B, chosen from the seed.
	nB := int(p.rateB * r.slice(15.0/22).Seconds())
	keep := map[int]bool{}
	for rng := r.rng(5); len(keep) < min(p.verify, nB); {
		keep[rng.Intn(nB)] = true
	}
	var phaseB *phase
	r.primarySpan = "B"
	err = r.withTrace(func(traced bool) (float64, error) {
		done, wall := in.closedLoop(r, b, r.slice(4.0/22))
		capacity := float64(done) / wall.Seconds()
		phB := in.openLoop(r, b, "B", p.rateB, r.slice(15.0/22), 0, hooks{keep: keep})
		phC := in.openLoop(r, b, "C", p.rateC, r.slice(3.0/22), len(phB.sent), hooks{})
		tB, tC := phB.tails(), phC.tails()
		if err := errors.Join(phB.firstError(), phC.firstError()); err != nil {
			r.note("first request error: %v", err)
		}
		if traced {
			return tB.all.Median, nil
		}
		phaseB = phB
		r.e2e["op1_ms"] = summaryValue(tB.all, "ms", fmt.Sprintf("p50 at %g req/s", p.rateB))
		r.e2e["op2_ms"] = Value{V: tB.p95, Unit: "ms", N: tB.windows, Alias: fmt.Sprintf("p95 at %g req/s, median over %v windows", p.rateB, tailWindow)}
		r.e2e["op3_ms"] = Value{V: 1e6 / capacity, Unit: "ms", N: done, Alias: fmt.Sprintf("closed loop of %d clients, ms per 1000 requests", p.clients)}
		r.e2e["op4_ms"] = summaryValue(tC.all, "ms", fmt.Sprintf("p50 at %g req/s", p.rateC))
		r.setLayer("serve.capacity_rps", "req/s", capacity)
		r.setLayer("serve.lat_p50_ms", "ms", tB.all.Median)
		r.setLayer("serve.lat_p95_ms", "ms", tB.p95)
		r.setLayer("serve.lat_p99_ms", "ms", tB.p99)
		r.setLayer("serve.lat_p50_ms_4k", "ms", tC.all.Median)
		r.setLayer("serve.lat_p99_ms_4k", "ms", tC.p99)
		r.setLayer("serve.shed_frac", "frac", float64(phB.shed()+phC.shed())/float64(len(phB.sent)+len(phC.sent)))
		r.setLayer("gen.late_p99_ms", "ms", phB.lateP99())
		phB.batchStats(r)
		return tB.all.Median, nil
	})
	if err != nil {
		return err
	}
	if err := in.checkBatchedEqualsSolo(r, phaseB, keep); err != nil {
		return err
	}
	if r.trace {
		return in.probeExec(r, int(r.layer["serve.batch_seeds_mean"].V+0.999))
	}
	return nil
}

// closedLoop runs the configured number of clients back to back for d.
func (in *serveInputs) closedLoop(r *Run, b *featgraph.Batcher, d time.Duration) (completed int, wall time.Duration) {
	ctx := context.Background()
	errs := make([]int, in.p.clients)
	completed, wall = harness.ClosedLoop(d, in.p.clients, func(client, call int) {
		seed := in.seeds[(client*7919+call)%len(in.seeds)]
		if _, err := b.Serve(ctx, featgraph.ServeRequest{Seeds: []int32{seed}}); err != nil {
			errs[client]++
		}
	})
	r.attempted += int64(completed)
	for _, e := range errs {
		r.failed += int64(e)
		completed -= e
	}
	return completed, wall
}

// checkBatchedEqualsSolo re-runs the kept requests one at a time on a fresh
// batcher that never waits for company: batching may change latency, never
// an answer, so the rows must be bitwise equal.
func (in *serveInputs) checkBatchedEqualsSolo(r *Run, ph *phase, keep map[int]bool) error {
	g, err := featgraph.GraphFromCSR(in.adj)
	if err != nil {
		return err
	}
	solo, err := featgraph.NewBatcher(g, in.feats, in.model, in.config(r, 0))
	if err != nil {
		return err
	}
	defer solo.Close()
	for i := range keep {
		r.attempted++
		batched := ph.got[i].out
		if batched == nil {
			r.fail("request %d of phase B has no output to compare: %v", i, ph.got[i].err)
			continue
		}
		res, err := solo.Serve(context.Background(), featgraph.ServeRequest{Seeds: []int32{in.seeds[i%len(in.seeds)]}})
		if err != nil {
			r.fail("solo re-run of request %d: %v", i, err)
			continue
		}
		if !bitwiseEqual(batched, res.Out) {
			r.fail("request %d: batched row differs from the same request served alone", i)
		}
	}
	return nil
}

func bitwiseEqual(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	bd := b.Data()
	for i, v := range a.Data() {
		if v != bd[i] && !(v != v && bd[i] != bd[i]) {
			return false
		}
	}
	return true
}
