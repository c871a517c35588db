package core_test

// The MLP aggregation's output bits, pinned. Each case hashes the
// Float32bits of every output element of the mlp-src-dst fast path over
// d1 ∈ {1, 5, 8} (the expression builder rejects an empty reduce axis, so
// d1 = 0 is internal/vec's to cover), untiled and with the output axis
// split at 12, on the CPU and on the simulated GPU (which must agree to the
// bit), so a change to the kernel's arithmetic that moves one bit of one
// output fails here.
// NaNs hash as one value: an SSE NaN may carry another payload than the
// scalar one (internal/vec). The bits are a function of the operands and
// the neighbour order alone, so they hold at any GOMAXPROCS and under
// -race.

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"featgraph/internal/core"
	"featgraph/internal/graphgen"
	"featgraph/internal/schedule"
	"featgraph/internal/tensor"
)

// goldenMLPBits holds the hashes, keyed by case name.
var goldenMLPBits = map[string]uint64{
	"sum/relu d2=3":     0x2529f1b6d45420ed,
	"sum/relu d2=4":     0x29238fc1df2095e5,
	"sum/relu d2=8":     0xac47cd998e94ebcd,
	"sum/relu d2=9":     0x6ca886898a7eb4bd,
	"sum/relu d2=12":    0xb581fa621f67dfd5,
	"sum/relu d2=16":    0x659173b2f974a8e5,
	"sum/relu d2=64":    0x7d21693079b2ec65,
	"sum/relu d2=65":    0xe413e8b63138861d,
	"sum/linear d2=3":   0x5eeb9181d2dff19d,
	"sum/linear d2=4":   0xf33437674bad8c35,
	"sum/linear d2=8":   0x32a9f7953d11ea6d,
	"sum/linear d2=9":   0xdd19e0a22b2788e5,
	"sum/linear d2=12":  0x60442dcb50e27c55,
	"sum/linear d2=16":  0xb5ca0c6538f7334d,
	"sum/linear d2=64":  0xf5f6936aa83e07e5,
	"sum/linear d2=65":  0xa8174e2046c090ed,
	"mean/relu d2=3":    0x7968bbbfaed4428d,
	"mean/relu d2=4":    0xe41ae799d0e0edc5,
	"mean/relu d2=8":    0x885e019cdf6bb2ad,
	"mean/relu d2=9":    0xddb7bc4fb80498dd,
	"mean/relu d2=12":   0x56a31b529a5974a5,
	"mean/relu d2=16":   0xf11254178cad867d,
	"mean/relu d2=64":   0xacfe7a0260871b25,
	"mean/relu d2=65":   0xb86ea8825c91683d,
	"mean/linear d2=3":  0xaa211e210afafe1d,
	"mean/linear d2=4":  0x9f82a4d1dd55893d,
	"mean/linear d2=8":  0x786f1174faf4eff5,
	"mean/linear d2=9":  0xe3771874ecd8403d,
	"mean/linear d2=12": 0x5b4709679deed31d,
	"mean/linear d2=16": 0x030f5c7206f8be05,
	"mean/linear d2=64": 0x559a6c98b2217e8d,
	"mean/linear d2=65": 0x4576960357a018b5,
	"max/relu d2=3":     0x471bda1027a9f2bd,
	"max/relu d2=4":     0x58dcb95fd11dba5d,
	"max/relu d2=8":     0x552742e0c55c4e4d,
	"max/relu d2=9":     0x7d8a02081772d07d,
	"max/relu d2=12":    0xfb58036745142fb5,
	"max/relu d2=16":    0x78b4e4870903a46d,
	"max/relu d2=64":    0x2b13285270984285,
	"max/relu d2=65":    0xb267e6eced6cfaa5,
	"max/linear d2=3":   0xeecddd32473469ad,
	"max/linear d2=4":   0xc6abf11ae6c98d7d,
	"max/linear d2=8":   0x7d1adeea805031cd,
	"max/linear d2=9":   0x262e678379b59e8d,
	"max/linear d2=12":  0x832310f58bc85cbd,
	"max/linear d2=16":  0x422868bbea18b125,
	"max/linear d2=64":  0x3c8bb8786d3b04dd,
	"max/linear d2=65":  0x1155349df9eded6d,
	"min/relu d2=3":     0xf81dbf379b63f73d,
	"min/relu d2=4":     0x6f47744f17c8d0f5,
	"min/relu d2=8":     0x8b0b21b000e754bd,
	"min/relu d2=9":     0x6c28dc983fcb6c15,
	"min/relu d2=12":    0xe9516081706dc6c5,
	"min/relu d2=16":    0x8f170ff71a53ff65,
	"min/relu d2=64":    0xf9af041fd5e0da25,
	"min/relu d2=65":    0xc81177b143a4de0d,
	"min/linear d2=3":   0x00909ed1d57cfadd,
	"min/linear d2=4":   0x719f84f833bb7a4d,
	"min/linear d2=8":   0xfb27251fad25a6b5,
	"min/linear d2=9":   0xf34183604a748cbd,
	"min/linear d2=12":  0x9bdcbcfbb9e184cd,
	"min/linear d2=16":  0x5794b8e3fa1a69c5,
	"min/linear d2=64":  0x61771b8a7718f625,
	"min/linear d2=65":  0x6cf0af3399f59efd,
	"inf":               0xbd0ddf12fd32357d,
}

func TestMLPBitsGolden(t *testing.T) {
	const n = 40
	a := graphgen.Skewed(rand.New(rand.NewSource(32)), n, 6, 1.3)
	aggs := []core.AggOp{core.AggSum, core.AggMean, core.AggMax, core.AggMin}

	// run hashes the outputs of the MLP aggregation of x through w under
	// each tiling and target into h, requiring the GPU to match the CPU bit
	// for bit, and counts the NaN and infinite outputs.
	var nans, infs int
	run := func(name string, h interface{ Write([]byte) (int, error) }, relu bool, agg core.AggOp, x, w *tensor.Tensor) {
		t.Helper()
		d1, d2 := w.Dim(0), w.Dim(1)
		udf := mlpUDF(n, d1, d2, relu)
		for _, split := range []bool{false, true} {
			var fds *schedule.FDS
			if split {
				fds = schedule.New().Split(udf.OutAxes[0], 12)
			}
			var cpu *tensor.Tensor
			for _, target := range []core.Target{core.CPU, core.GPU} {
				what := fmt.Sprintf("%s d1=%d split=%v %s", name, d1, split, target)
				k, err := core.BuildSpMM(a, udf, []*tensor.Tensor{x, w}, agg, fds, core.Options{Target: target, NoFallback: true})
				if err != nil {
					t.Fatalf("%s: build: %v", what, err)
				}
				if k.Pattern() != "mlp-src-dst" {
					t.Fatalf("%s: pattern %q, want mlp-src-dst", what, k.Pattern())
				}
				out := tensor.New(n, d2)
				if _, err := k.Run(out); err != nil {
					t.Fatalf("%s: run: %v", what, err)
				}
				if cpu == nil {
					cpu = out
				} else {
					requireBitwise(t, what+" vs CPU", out, cpu)
				}
				var b [4]byte
				for _, v := range out.Data() {
					u := math.Float32bits(v)
					if v != v {
						u = 0x7fc00000
						nans++
					} else if math.IsInf(float64(v), 0) {
						infs++
					}
					b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
					h.Write(b[:])
				}
			}
		}
	}

	got := map[string]uint64{}
	var names []string
	for _, agg := range aggs {
		for _, relu := range []bool{true, false} {
			act := map[bool]string{true: "relu", false: "linear"}[relu]
			for _, d2 := range []int{3, 4, 8, 9, 12, 16, 64, 65} {
				name := fmt.Sprintf("%s/%s d2=%d", agg, act, d2)
				h := fnv.New64a()
				for _, d1 := range []int{1, 5, 8} {
					rng := rand.New(rand.NewSource(int64(100*d2 + d1)))
					run(name, h, relu, agg, randT(rng, n, d1), randT(rng, d1, d2))
				}
				got[name] = h.Sum64()
				names = append(names, name)
			}
		}
	}

	// ±Inf in W: a zero combined feature meets them as 0·Inf (NaN), and a
	// nonzero one as ±Inf messages that sum to NaN or fold as infinities.
	const d1, d2 = 5, 21
	rng := rand.New(rand.NewSource(33))
	x, w := randT(rng, n, d1), randT(rng, d1, d2)
	for v := 0; v < n; v += 3 {
		x.Set(0, v, 1)
	}
	for _, c := range [][2]int{{1, 0}, {1, 5}, {3, 13}, {4, 20}} {
		w.Set(float32(math.Inf(1)), c[0], c[1])
	}
	for _, c := range [][2]int{{0, 5}, {2, 7}, {3, 16}} {
		w.Set(float32(math.Inf(-1)), c[0], c[1])
	}
	h := fnv.New64a()
	nans, infs = 0, 0
	for _, agg := range aggs {
		for _, relu := range []bool{true, false} {
			run(fmt.Sprintf("inf %s relu=%v", agg, relu), h, relu, agg, x, w)
		}
	}
	if nans == 0 || infs == 0 {
		t.Fatalf("inf case: %d NaN and %d infinite outputs, want some of each", nans, infs)
	}
	got["inf"] = h.Sum64()
	names = append(names, "inf")

	for _, name := range names {
		if want, ok := goldenMLPBits[name]; !ok || got[name] != want {
			t.Errorf("%q: %#016x, // output bits; golden %#016x", name, got[name], want)
		}
	}
	if len(goldenMLPBits) != len(names) {
		t.Errorf("golden table has %d cases, the test runs %d", len(goldenMLPBits), len(names))
	}
}
