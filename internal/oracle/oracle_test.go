package oracle

import (
	"math"
	"testing"

	"featgraph/internal/autodiff"
	"featgraph/internal/core"
	"featgraph/internal/cudasim"
	"featgraph/internal/tensor"
)

// The seeded-corpus differential suite: a fixed seed range swept through
// every execution configuration on every go test run. The fuzz targets in
// core/dgl/autodiff explore beyond this corpus; this suite is the
// deterministic regression floor (>= 200 cases, zero divergences).

const (
	corpusSpMMSeeds  = 140
	corpusSDDMMSeeds = 80
)

func TestSeededCorpus(t *testing.T) {
	dev := cudasim.NewDevice(cudasim.Config{NumSMs: 2})
	covered := map[string]bool{}
	cases := 0

	runCase(t, &cases, covered, dev, GenSpMM, 0, corpusSpMMSeeds)
	runCase(t, &cases, covered, dev, GenSDDMM, 1<<32, corpusSDDMMSeeds)

	if cases < 200 {
		t.Fatalf("corpus ran %d cases, want >= 200", cases)
	}
	// The acceptance matrix: every execution configuration crossed with
	// every template kind, and (for SpMM) with every aggregation operator.
	for _, cfg := range []string{"engine", "engine-rerun", "engine-1t", "gpu", "rebuild"} {
		for _, kind := range []string{"spmm", "sddmm"} {
			if !covered[cfg+"/"+kind] {
				t.Errorf("corpus never exercised %s/%s", cfg, kind)
			}
		}
		for _, agg := range []core.AggOp{core.AggSum, core.AggMax, core.AggMin, core.AggMean} {
			if key := cfg + "/spmm/" + agg.String(); !covered[key] {
				t.Errorf("corpus never exercised %s", key)
			}
		}
	}
}

func runCase(t *testing.T, cases *int, covered map[string]bool, dev *cudasim.Device,
	gen func(int64) *Case, base int64, n int64) {
	t.Helper()
	for seed := base + 1; seed <= base+n; seed++ {
		c := gen(seed)
		res, err := Check(c, dev)
		if err != nil {
			t.Fatal(err)
		}
		*cases++
		for _, cfg := range res.Configs {
			covered[cfg+"/"+c.Kind.String()] = true
			if c.Kind == SpMM {
				covered[cfg+"/spmm/"+c.Agg.String()] = true
			}
		}
	}
}

func TestMetamorphicPermutation(t *testing.T) {
	tol := DefaultTol()
	for seed := int64(1); seed <= 40; seed++ {
		if err := CheckPermutation(GenSpMM(seed), tol); err != nil {
			t.Fatal(err)
		}
		if err := CheckPermutation(GenSDDMM(seed+1<<32), tol); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMetamorphicLinearity(t *testing.T) {
	tol := DefaultTol()
	for seed := int64(1); seed <= 30; seed++ {
		if err := CheckLinearity(GenSpMM(seed), tol); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMetamorphicScheduleIndependence(t *testing.T) {
	tol := DefaultTol()
	for seed := int64(1); seed <= 30; seed++ {
		if err := CheckScheduleIndependence(GenSpMM(seed), tol); err != nil {
			t.Fatal(err)
		}
		if err := CheckScheduleIndependence(GenSDDMM(seed+1<<32), tol); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGradCheckAcceptsCorrectGradients exercises GradCheck against a tape
// whose gradients are known-correct: a tiny classifier whose analytic
// gradients the autodiff package computes, with a smooth loss everywhere
// (weights and inputs positive keeps ReLU strictly in its linear region).
func TestGradCheckAcceptsCorrectGradients(t *testing.T) {
	x := tensor.New(5, 3)
	w := tensor.New(3, 4)
	bias := tensor.New(1, 4)
	fill := func(ts *tensor.Tensor, base float32) {
		d := ts.Data()
		for i := range d {
			d[i] = base + 0.1*float32(i%7)
		}
	}
	fill(x, 0.6)
	fill(w, 0.5)
	fill(bias, 0.7)
	labels := []int{0, 1, 2, 3, 0}

	build := func(tp *autodiff.Tape, vars []*autodiff.Var) *autodiff.Var {
		h := tp.ReLU(tp.AddRowVec(tp.MatMul(vars[0], vars[1]), vars[2]))
		return tp.CrossEntropyLoss(h, labels, nil)
	}
	if err := GradCheck([]*tensor.Tensor{x, w, bias}, build, 1e-2, 5e-2); err != nil {
		t.Fatal(err)
	}
}

// TestGradCheckRejectsWrongGradients makes sure the checker has teeth: a
// loss whose backward deliberately mis-scales the gradient must fail.
func TestGradCheckRejectsWrongGradients(t *testing.T) {
	x := tensor.New(2, 2)
	x.Data()[0], x.Data()[1], x.Data()[2], x.Data()[3] = 1, 2, 3, 4
	build := func(tp *autodiff.Tape, vars []*autodiff.Var) *autodiff.Var {
		// Forward computes sum(3x) via CrossEntropy-free plumbing: a Custom
		// node whose backward claims the gradient is 1 instead of 3.
		return tp.Custom(
			func() *tensor.Tensor {
				out := tensor.New(1, 1)
				var s float32
				for _, v := range vars[0].Value.Data() {
					s += 3 * v
				}
				out.Data()[0] = s
				return out
			},
			func(dOut *tensor.Tensor) {
				g := autodiff.EnsureGrad(vars[0])
				for i := range g.Data() {
					g.Data()[i] += dOut.Data()[0] // wrong: should be 3*dOut
				}
			},
		)
	}
	if err := GradCheck([]*tensor.Tensor{x}, build, 1e-2, 5e-2); err == nil {
		t.Fatal("GradCheck accepted a deliberately wrong backward")
	}
}

func TestULPDist(t *testing.T) {
	if d := ULPDist(1.0, 1.0); d != 0 {
		t.Fatalf("ULPDist(1,1) = %d", d)
	}
	if d := ULPDist(1.0, math.Nextafter32(1, 2)); d != 1 {
		t.Fatalf("ULPDist(1, nextafter(1)) = %d", d)
	}
	if d := ULPDist(0, float32(math.Copysign(0, -1))); d != 0 {
		t.Fatalf("ULPDist(+0,-0) = %d", d)
	}
	if d := ULPDist(1, -1); d < 1<<24 {
		t.Fatalf("ULPDist(1,-1) = %d, want huge", d)
	}
	nan := float32(math.NaN())
	if d := ULPDist(nan, 1); d != ^uint64(0) {
		t.Fatalf("ULPDist(NaN,1) = %d", d)
	}
	if d := ULPDist(nan, nan); d != 0 {
		t.Fatalf("ULPDist(NaN,NaN) = %d", d)
	}
}
