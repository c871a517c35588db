package core_test

// The simulated GPU's cycle model is the GPU tier's measurement: the paper's
// GPU tables and figures report it. This test pins RunStats.SimCycles for
// every device block body on one fixed-seed graph, so a change to a body
// that moves a count, by one cycle, fails here. It pins the baselines' loops
// the same way (the edge/ and cusparse/ rows), on that graph and on one whose
// edges fill several edge-parallel blocks across the SMs. The counts are a
// function of the grid alone (blocks dispatched in index order to the
// least-loaded simulated SM), so they hold at any GOMAXPROCS and under -race.

import (
	"fmt"
	"math/rand"
	"testing"

	"featgraph/internal/core"
	"featgraph/internal/cudasim"
	"featgraph/internal/cusparse"
	"featgraph/internal/expr"
	"featgraph/internal/graphgen"
	"featgraph/internal/gunrock"
	"featgraph/internal/schedule"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// goldenSimCycles holds the counts, keyed by case name.
var goldenSimCycles = map[string]uint64{
	"spmm/copy-src/sum featPar=false hybrid=0":            9888,
	"spmm/copy-src/sum featPar=false hybrid=8":            7612,
	"spmm/copy-src/sum featPar=true hybrid=0":             540,
	"spmm/copy-src/sum featPar=true hybrid=8":             907,
	"spmm/copy-src/mean featPar=false hybrid=0":           9888,
	"spmm/copy-src/mean featPar=false hybrid=8":           7612,
	"spmm/copy-src/mean featPar=true hybrid=0":            540,
	"spmm/copy-src/mean featPar=true hybrid=8":            907,
	"spmm/copy-src/max featPar=false hybrid=0":            9888,
	"spmm/copy-src/max featPar=false hybrid=8":            7612,
	"spmm/copy-src/max featPar=true hybrid=0":             540,
	"spmm/copy-src/max featPar=true hybrid=8":             907,
	"spmm/copy-src/min featPar=false hybrid=0":            7488,
	"spmm/copy-src/min featPar=false hybrid=8":            9430,
	"spmm/copy-src/min featPar=true hybrid=0":             420,
	"spmm/copy-src/min featPar=true hybrid=8":             1004,
	"spmm/src-mul-edge-scalar/sum featPar=false hybrid=0": 11088,
	"spmm/src-mul-edge-scalar/sum featPar=false hybrid=8": 8854,
	"spmm/src-mul-edge-scalar/sum featPar=true hybrid=0":  600,
	"spmm/src-mul-edge-scalar/sum featPar=true hybrid=8":  971,
	"spmm/src-mul-edge-scalar/max featPar=false hybrid=0": 13488,
	"spmm/src-mul-edge-scalar/max featPar=false hybrid=8": 15592,
	"spmm/src-mul-edge-scalar/max featPar=true hybrid=0":  720,
	"spmm/src-mul-edge-scalar/max featPar=true hybrid=8":  1314,
	"spmm/copy-edge/sum featPar=false hybrid=0":           7488,
	"spmm/copy-edge/sum featPar=false hybrid=8":           8908,
	"spmm/copy-edge/sum featPar=true hybrid=0":            420,
	"spmm/copy-edge/sum featPar=true hybrid=8":            491,
	"spmm/mlp-relu/sum featPar=false hybrid=0":            59868,
	"spmm/mlp-relu/sum featPar=false hybrid=8":            63014,
	"spmm/mlp-relu/sum featPar=true hybrid=0":             3780,
	"spmm/mlp-relu/sum featPar=true hybrid=8":             3962,
	"spmm/mlp-linear/max featPar=false hybrid=0":          59868,
	"spmm/mlp-linear/max featPar=false hybrid=8":          63014,
	"spmm/mlp-linear/max featPar=true hybrid=0":           3780,
	"spmm/mlp-linear/max featPar=true hybrid=8":           3962,
	"spmm/add-src-dst/sum featPar=false hybrid=0":         13488,
	"spmm/add-src-dst/sum featPar=false hybrid=8":         15088,
	"spmm/add-src-dst/sum featPar=true hybrid=0":          720,
	"spmm/add-src-dst/sum featPar=true hybrid=8":          800,
	"sddmm/dot tree":                 1740,
	"sddmm/dot naive":                15960,
	"sddmm/multi-head featPar=false": 13440,
	"sddmm/multi-head featPar=true":  3360,
	"fusedattn/fwd":                  3084,
	"fusedattn/bwd":                  5202,

	// The baselines on the fixture: 240 edges, one edge-parallel block.
	"edge/gcn-agg":               105600,
	"edge/mlp-agg":               480000,
	"edge/dot":                   63840,
	"edge/gather-src scale=nil":  57600,
	"edge/gather-src scale=edge": 57600,
	"edge/gather-dst scale=nil":  57600,
	"edge/gather-dst scale=edge": 57600,
	"edge/gather-dst scale=dst":  57600,
	"edge/scatter-add":           105600,
	"edge/edge-dot":              63840,
	"cusparse/csrmm":             492,
	"cusparse/constrained-gemm":  1740,

	// The baselines on Skewed(400, 5, 1.3): 2 000 edges, eight edge-parallel
	// blocks over the four SMs.
	"edge/gcn-agg n=400":               225280,
	"edge/mlp-agg n=400":               1024000,
	"edge/dot n=400":                   136192,
	"edge/gather-src scale=nil n=400":  122880,
	"edge/gather-src scale=edge n=400": 122880,
	"edge/gather-dst scale=nil n=400":  122880,
	"edge/gather-dst scale=edge n=400": 122880,
	"edge/gather-dst scale=dst n=400":  122880,
	"edge/scatter-add n=400":           225280,
	"edge/edge-dot n=400":              136192,
	"cusparse/csrmm n=400":             4100,
	"cusparse/constrained-gemm n=400":  14500,
}

func TestSimCyclesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const n, d, d1, h, hd = 48, 20, 6, 4, 5
	a := graphgen.Skewed(rng, n, 5, 1.3) // heavy source columns, so hybrid stages some
	m := a.NNZ()
	x, e1, ed := randT(rng, n, d), randT(rng, m, 1), randT(rng, m, d)
	x6, w := randT(rng, n, d1), randT(rng, d1, d)
	xh := tensor.New(n, h, hd)
	xh.FillUniform(rng, -1, 1)
	dev := cudasim.NewDevice(cudasim.Config{NumSMs: 4})
	gpu := core.Options{Target: core.GPU, Device: dev, NoFallback: true}

	got := map[string]uint64{}
	var names []string
	record := func(name string, k kernel, pattern string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		if p, ok := k.(interface{ Pattern() string }); ok && p.Pattern() != pattern {
			t.Fatalf("%s: pattern %q, want %q", name, p.Pattern(), pattern)
		}
		rows, cols := k.OutShape()
		stats, err := k.Run(tensor.New(rows, cols))
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		got[name] = stats.SimCycles
		names = append(names, name)
	}

	type spmmCase struct {
		name, pattern string
		udf           *expr.UDF
		inputs        []*tensor.Tensor
		agg           core.AggOp
	}
	cases := []spmmCase{
		{"copy-src/sum", "copy-src", expr.CopySrc(n, d), []*tensor.Tensor{x}, core.AggSum},
		{"copy-src/mean", "copy-src", expr.CopySrc(n, d), []*tensor.Tensor{x}, core.AggMean},
		{"copy-src/max", "copy-src", expr.CopySrc(n, d), []*tensor.Tensor{x}, core.AggMax},
		{"copy-src/min", "copy-src", expr.CopySrc(n, d), []*tensor.Tensor{x}, core.AggMin},
		{"src-mul-edge-scalar/sum", "src-mul-edge-scalar", expr.SrcMulEdgeScalar(n, m, d), []*tensor.Tensor{x, e1}, core.AggSum},
		{"src-mul-edge-scalar/max", "src-mul-edge-scalar", expr.SrcMulEdgeScalar(n, m, d), []*tensor.Tensor{x, e1}, core.AggMax},
		{"copy-edge/sum", "copy-edge", expr.CopyEdge(m, d), []*tensor.Tensor{ed}, core.AggSum},
		{"mlp-relu/sum", "mlp-src-dst", mlpUDF(n, d1, d, true), []*tensor.Tensor{x6, w}, core.AggSum},
		{"mlp-linear/max", "mlp-src-dst", mlpUDF(n, d1, d, false), []*tensor.Tensor{x6, w}, core.AggMax},
		{"add-src-dst/sum", "generic", expr.AddSrcDst(n, d), []*tensor.Tensor{x}, core.AggSum},
	}
	for _, c := range cases {
		for _, featPar := range []bool{false, true} {
			var fds *schedule.FDS
			if featPar {
				fds = schedule.New().Bind(c.udf.OutAxes[0], schedule.ThreadX)
			}
			for _, hybrid := range []int32{0, 8} {
				o := gpu
				o.HybridThreshold = hybrid
				k, err := core.BuildSpMM(a, c.udf, c.inputs, c.agg, fds, o)
				record(fmt.Sprintf("spmm/%s featPar=%v hybrid=%d", c.name, featPar, hybrid), k, c.pattern, err)
			}
		}
	}

	dot, red := dotUDF(n, d)
	for _, c := range []struct {
		name string
		fds  *schedule.FDS
	}{{"tree", schedule.New().TreeReduce(red, schedule.ThreadX)}, {"naive", nil}} {
		k, err := core.BuildSDDMM(a, dot, []*tensor.Tensor{x}, c.fds, gpu)
		record("sddmm/dot "+c.name, k, "dot-src-dst", err)
	}
	heads := expr.MultiHeadDot(n, h, hd)
	for _, featPar := range []bool{false, true} {
		var fds *schedule.FDS
		if featPar {
			fds = schedule.New().Bind(heads.OutAxes[0], schedule.ThreadX)
		}
		k, err := core.BuildSDDMM(a, heads, []*tensor.Tensor{xh}, fds, gpu)
		record(fmt.Sprintf("sddmm/multi-head featPar=%v", featPar), k, "generic", err)
	}

	alpha, deriv := tensor.New(m, 1), tensor.New(m, 1)
	y, dout := randT(rng, n, d), randT(rng, n, d)
	fwd, err := core.BuildFusedAttention(a, x, y, alpha, deriv, core.FusedAttnConfig{NegSlope: 0.2, Scale: 0.25}, gpu)
	record("fusedattn/fwd", fwd, "fusedattn", err)
	bwd, err := core.BuildFusedAttentionBwd(a, a.Transpose(), x, y, alpha, deriv, dout, gpu)
	record("fusedattn/bwd", bwd, "fusedattn.bwd", err)

	big := graphgen.Skewed(rand.New(rand.NewSource(29)), 400, 5, 1.3)
	for _, g := range []struct {
		suffix string
		a      *sparse.CSR
	}{{"", a}, {" n=400", big}} {
		baselineCycles(t, dev, g.a, d, d1, func(name string, cycles uint64) {
			got[name+g.suffix] = cycles
			names = append(names, name+g.suffix)
		})
	}

	for _, name := range names {
		if want, ok := goldenSimCycles[name]; !ok || got[name] != want {
			t.Errorf("%q: %d, // SimCycles; golden %d", name, got[name], want)
		}
	}
	if len(goldenSimCycles) != len(names) {
		t.Errorf("golden table has %d cases, the test runs %d", len(goldenSimCycles), len(names))
	}
}

// baselineCycles runs each baseline body once on a and reports its count.
func baselineCycles(t *testing.T, dev *cudasim.Device, a *sparse.CSR, d, d1 int, report func(string, uint64)) {
	t.Helper()
	rng := rand.New(rand.NewSource(30))
	n, m := a.NumRows, a.NNZ()
	x, y, x6, w := randT(rng, n, d), randT(rng, n, d), randT(rng, n, d1), randT(rng, d1, d)
	perEdge, perDst := randT(rng, m, 1).Data(), randT(rng, n, 1).Data()
	out, msg, att := tensor.New(n, d), tensor.New(m, d), tensor.New(m, 1)
	run := func(name string, cycles uint64, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		report(name, cycles)
	}
	g := gunrock.NewGraph(a)
	c, err := gunrock.GCNAggregation(dev, g, x, out)
	run("edge/gcn-agg", c, err)
	c, err = gunrock.MLPAggregation(dev, g, x6, w, out)
	run("edge/mlp-agg", c, err)
	c, err = gunrock.EdgeDot(dev, g, x, x, att) // dot-product attention
	run("edge/dot", c, err)
	c, err = gunrock.GatherSrc(dev, g, x, msg, nil)
	run("edge/gather-src scale=nil", c, err)
	c, err = gunrock.GatherSrc(dev, g, x, msg, perEdge)
	run("edge/gather-src scale=edge", c, err)
	c, err = gunrock.GatherDst(dev, g, x, msg, nil, false)
	run("edge/gather-dst scale=nil", c, err)
	c, err = gunrock.GatherDst(dev, g, x, msg, perEdge, true)
	run("edge/gather-dst scale=edge", c, err)
	c, err = gunrock.GatherDst(dev, g, x, msg, perDst, false)
	run("edge/gather-dst scale=dst", c, err)
	c, err = gunrock.ScatterAddByDst(dev, g, msg, out)
	run("edge/scatter-add", c, err)
	c, err = gunrock.EdgeDot(dev, g, x, y, att)
	run("edge/edge-dot", c, err)
	c, err = cusparse.CSRMM(dev, a, x, out)
	run("cusparse/csrmm", c, err)
	c, err = cusparse.ConstrainedGeMM(dev, a, x, y, att)
	run("cusparse/constrained-gemm", c, err)
}
