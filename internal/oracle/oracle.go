// Package oracle is the correctness oracle for FeatGraph's kernel stack:
// a seeded generator of random (graph, UDF, aggregation, schedule) cases
// and a differential checker that runs each case through every live
// execution configuration — the persistent engine at the case's thread
// count and single-threaded, the GPU simulator, and a rebuilt kernel — and
// compares all of them against the single-threaded reference evaluations
// within an ULP-aware tolerance.
//
// The paper's premise is that schedules are semantics-preserving: any
// (partitioning, tiling, traversal, target) choice must produce the same
// tensor. The oracle enforces that mechanically. It is exposed two ways:
// deterministic seeded-corpus suites (go test) that sweep a fixed seed
// range, and native fuzz targets (go test -fuzz) in core, dgl and autodiff
// that hand arbitrary seeds to the same generator.
package oracle

import (
	"fmt"
	"math"

	"featgraph/internal/core"
	"featgraph/internal/cudasim"
	"featgraph/internal/schedule"
	"featgraph/internal/tensor"
)

// Tol is the comparison tolerance. Two float32 values agree when they are
// within Abs of each other or within ULPs units in the last place. The
// absolute term absorbs catastrophic cancellation near zero (where ULP
// distance explodes); the ULP term scales with magnitude, so large
// aggregates are held to a relative standard instead of a meaningless
// absolute one. NaN never agrees with anything except NaN.
type Tol struct {
	ULPs uint64
	Abs  float64
}

// DefaultTol matches the error budget of the UDF space the generator
// emits: values in [0.5,1.5], trees of depth <= 3, reductions over <= 12
// terms, aggregations over bounded-degree vertices. 2^16 ULPs is ~0.8%
// relative; 1e-2 absolute matches the long-standing property-test budget.
func DefaultTol() Tol { return Tol{ULPs: 1 << 16, Abs: 1e-2} }

// orderedBits maps float32 bit patterns onto a monotonic integer line:
// adjacent representable floats differ by exactly 1, and -0 and +0
// coincide. This is the standard sign-magnitude flip used for ULP
// comparisons.
func orderedBits(f float32) int64 {
	b := int64(math.Float32bits(f))
	if b >= 1<<31 { // negative: reflect below zero so ordering is monotonic
		return (1 << 31) - b
	}
	return b
}

// ULPDist returns the distance between a and b in units in the last place,
// or MaxUint64 when exactly one of them is NaN.
func ULPDist(a, b float32) uint64 {
	an, bn := math.IsNaN(float64(a)), math.IsNaN(float64(b))
	if an || bn {
		if an && bn {
			return 0
		}
		return math.MaxUint64
	}
	ia, ib := orderedBits(a), orderedBits(b)
	if ia > ib {
		return uint64(ia - ib)
	}
	return uint64(ib - ia)
}

// Close reports whether a and b agree under tol.
func (tol Tol) Close(a, b float32) bool {
	if a == b {
		return true
	}
	if math.Abs(float64(a)-float64(b)) <= tol.Abs {
		return true
	}
	return ULPDist(a, b) <= tol.ULPs
}

// Divergence is a self-contained reproducer for one disagreement between
// an execution configuration and the reference: the seed regenerates the
// case, Config names the path that diverged, and the element coordinates
// plus both values pin the first failing output.
type Divergence struct {
	Seed     int64
	Config   string // which execution configuration diverged
	Kind     string
	Row, Col int
	Got      float32
	Want     float32
	ULPs     uint64
	Detail   string // full case description (graph, schedule, UDF, device)
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("oracle: divergence seed=%d config=%s %s out[%d,%d] = %v, reference %v (%d ulps, absdiff %g)\ncase: %s",
		d.Seed, d.Config, d.Kind, d.Row, d.Col, d.Got, d.Want, d.ULPs,
		math.Abs(float64(d.Got)-float64(d.Want)), d.Detail)
}

// compare returns the first out-of-tolerance element of got vs want, or nil.
func compare(c *Case, config string, got, want *tensor.Tensor, tol Tol, detail string) *Divergence {
	cols := want.Dim(1)
	gd, wd := got.Data(), want.Data()
	if len(gd) != len(wd) {
		return &Divergence{Seed: c.Seed, Config: config, Kind: c.Kind.String(),
			Row: -1, Col: -1, Detail: fmt.Sprintf("shape mismatch: got %d elems, want %d; %s", len(gd), len(wd), detail)}
	}
	for i := range wd {
		if !tol.Close(gd[i], wd[i]) {
			return &Divergence{
				Seed: c.Seed, Config: config, Kind: c.Kind.String(),
				Row: i / cols, Col: i % cols, Got: gd[i], Want: wd[i],
				ULPs: ULPDist(gd[i], wd[i]), Detail: detail,
			}
		}
	}
	return nil
}

// bitwise asserts exact equality between two runs of the same compiled
// configuration; any difference means run state leaked between executions.
func bitwise(c *Case, config string, got, want *tensor.Tensor, detail string) *Divergence {
	return compare(c, config, got, want, Tol{}, detail+" (bitwise rerun check)")
}

// Result reports which execution configurations a Check actually
// exercised, so corpus suites can tally coverage of the configuration ×
// template × aggregation matrix.
type Result struct {
	Configs []string
	// Fallbacks names configs that gracefully degraded (e.g. GPU hybrid
	// staging exceeding shared memory falling back to CPU).
	Fallbacks []string
}

// Check runs the case through every live execution configuration and
// compares each against the reference evaluation under DefaultTol. A nil
// device skips the GPU configuration. The returned error, when non-nil, is
// a *Divergence for comparison failures or a wrapped build/run error (both
// carry the reproducer seed).
func Check(c *Case, dev *cudasim.Device) (Result, error) {
	return CheckTol(c, dev, DefaultTol())
}

// CheckTol is Check with an explicit tolerance.
func CheckTol(c *Case, dev *cudasim.Device, tol Tol) (Result, error) {
	if c.Kind == SpMM {
		return checkSpMM(c, dev, tol)
	}
	return checkSDDMM(c, dev, tol)
}

// kernelCfg names one execution configuration of a case: a schedule plus
// scheduling options under which the case's kernel is compiled.
type kernelCfg struct {
	name string
	fds  *schedule.FDS
	opts core.Options
}

// buildFn compiles the case's kernel under one configuration. Both
// templates hide behind core.Kernel, so the differential loop below is
// written once for SpMM and SDDMM alike.
type buildFn func(fds *schedule.FDS, opts core.Options) (core.Kernel, error)

func checkSpMM(c *Case, dev *cudasim.Device, tol Tol) (Result, error) {
	want, err := core.ReferenceSpMM(c.Adj, c.UDF, c.Inputs, c.Agg)
	if err != nil {
		return Result{}, fmt.Errorf("oracle: seed %d: reference spmm: %w", c.Seed, err)
	}
	outAxis := c.UDF.OutAxes[0]
	var tiled *schedule.FDS
	if c.Tile > 0 {
		tiled = schedule.New().Split(outAxis, c.Tile)
	}
	cfgs := []kernelCfg{
		{"engine", tiled, core.Options{Target: core.CPU, NumThreads: c.Threads,
			GraphPartitions: c.Parts, CheckNumerics: c.CheckNumerics}},
		{"engine-1t", tiled, core.Options{Target: core.CPU, NumThreads: 1,
			GraphPartitions: c.Parts}},
	}
	if dev != nil {
		cfgs = append(cfgs, kernelCfg{"gpu", schedule.New().Bind(outAxis, schedule.ThreadX),
			core.Options{Target: core.GPU, Device: dev, NumBlocks: c.Blocks,
				ThreadsPerBlock: c.ThreadsPerBlock, HybridThreshold: c.HybridThreshold}})
	}
	build := func(fds *schedule.FDS, opts core.Options) (core.Kernel, error) {
		return core.BuildSpMM(c.Adj, c.UDF, c.Inputs, c.Agg, fds, opts)
	}
	return runConfigs(c, dev, tol, want, build, cfgs)
}

func checkSDDMM(c *Case, dev *cudasim.Device, tol Tol) (Result, error) {
	want, err := core.ReferenceSDDMM(c.Adj, c.UDF, c.Inputs)
	if err != nil {
		return Result{}, fmt.Errorf("oracle: seed %d: reference sddmm: %w", c.Seed, err)
	}
	outAxis := c.UDF.OutAxes[0]
	var tiled *schedule.FDS
	if c.Tile > 0 {
		tiled = schedule.New().Split(outAxis, c.Tile)
	}
	cfgs := []kernelCfg{
		{"engine", tiled, core.Options{Target: core.CPU, NumThreads: c.Threads,
			Hilbert: c.Hilbert, CheckNumerics: c.CheckNumerics}},
		{"engine-1t", tiled, core.Options{Target: core.CPU, NumThreads: 1,
			Hilbert: c.Hilbert}},
	}
	if dev != nil {
		cfgs = append(cfgs, kernelCfg{"gpu", schedule.New().Bind(outAxis, schedule.ThreadX),
			core.Options{Target: core.GPU, Device: dev, NumBlocks: c.Blocks,
				ThreadsPerBlock: c.ThreadsPerBlock}})
	}
	build := func(fds *schedule.FDS, opts core.Options) (core.Kernel, error) {
		return core.BuildSDDMM(c.Adj, c.UDF, c.Inputs, fds, opts)
	}
	return runConfigs(c, dev, tol, want, build, cfgs)
}

// runConfigs is the differential loop shared by both templates: compile and
// run the case under every configuration, compare each output against the
// reference, bitwise-check an engine rerun (pooled run state must not leak
// between executions), bitwise-check the single-threaded engine against the
// multi-threaded one (chunking decides which worker computes a row or edge,
// never the arithmetic order within it), and bitwise-check a rebuilt kernel
// against the first engine build (the plan-cache safety property at the core
// level). The first configuration must be the engine configuration; its
// options are reused for the rebuild.
func runConfigs(c *Case, dev *cudasim.Device, tol Tol, want *tensor.Tensor, build buildFn, cfgs []kernelCfg) (Result, error) {
	var res Result
	kind := c.Kind.String()
	var engineOut *tensor.Tensor
	for _, f := range cfgs {
		k, err := build(f.fds, f.opts)
		if err != nil {
			return res, fmt.Errorf("oracle: seed %d: build %s %s: %w\ncase: %s", c.Seed, kind, f.name, err, c.Describe())
		}
		rows, cols := k.OutShape()
		out := tensor.New(rows, cols)
		stats, err := k.Run(out)
		if err != nil {
			return res, fmt.Errorf("oracle: seed %d: run %s %s: %w\ncase: %s", c.Seed, kind, f.name, err, c.Describe())
		}
		detail := c.Describe() + " pattern=" + k.Pattern()
		if f.name == "gpu" {
			detail += " device=" + dev.Describe()
			if stats.Fallback {
				res.Fallbacks = append(res.Fallbacks, f.name+": "+stats.FallbackReason)
			}
		}
		if d := compare(c, f.name, out, want, tol, detail); d != nil {
			return res, d
		}
		if f.name == "engine-1t" {
			if d := bitwise(c, f.name, out, engineOut, detail); d != nil {
				return res, d
			}
		}
		res.Configs = append(res.Configs, f.name)

		if f.name == "engine" {
			engineOut = out
			// Re-run the same compiled kernel: pooled run state must not
			// leak between executions, so the rerun is bit-identical.
			out2 := tensor.New(rows, cols)
			if _, err := k.Run(out2); err != nil {
				return res, fmt.Errorf("oracle: seed %d: rerun %s: %w", c.Seed, kind, err)
			}
			if d := bitwise(c, "engine-rerun", out2, out, detail); d != nil {
				return res, d
			}
			res.Configs = append(res.Configs, "engine-rerun")
		}
	}

	// A freshly built kernel with identical parameters computes in the
	// same order, so it must match the first build bit-for-bit.
	k2, err := build(cfgs[0].fds, cfgs[0].opts)
	if err != nil {
		return res, fmt.Errorf("oracle: seed %d: rebuild %s: %w", c.Seed, kind, err)
	}
	rows, cols := k2.OutShape()
	out := tensor.New(rows, cols)
	if _, err := k2.Run(out); err != nil {
		return res, fmt.Errorf("oracle: seed %d: run rebuilt %s: %w", c.Seed, kind, err)
	}
	if d := bitwise(c, "rebuild", out, engineOut, c.Describe()); d != nil {
		return res, d
	}
	res.Configs = append(res.Configs, "rebuild")
	return res, nil
}
