package core

import (
	"math/rand"
	"reflect"
	"testing"

	"featgraph/internal/codegen"
	"featgraph/internal/expr"
	"featgraph/internal/graphgen"
	"featgraph/internal/tensor"
)

// lines is the span [first, last] of 64-byte lines that n elements of 4
// bytes from address p occupy.
func lines(p uintptr, n int) [2]uintptr { return [2]uintptr{p / 64, (p + uintptr(4*n) - 1) / 64} }

// floatLines is lines for a scratch buffer, envLines for an Env's slots
// (read through reflect: the field is codegen's).
func floatLines(s []float32) [2]uintptr { return lines(reflect.ValueOf(s).Pointer(), len(s)) }

func envLines(e *codegen.Env) [2]uintptr {
	v := reflect.ValueOf(e).Elem().FieldByName("slots")
	return lines(v.Pointer(), v.Len())
}

// TestSlotScratchOwnsItsLines: what a runner slot writes in its inner loop
// — the compiled UDF's env slots, SpMM's message and MLP buffers, the fused
// kernels' score rows — shares no 64-byte line with the next slot's, so two
// workers never false-share. Each kind's slot state is built twice back to
// back, as its CPU run state and GPU launch build one per slot, where the
// allocator would otherwise pack small buffers into one line. An address
// check: nothing is timed.
func TestSlotScratchOwnsItsLines(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, d1, d2 = 30, 3, 5
	a := graphgen.Skewed(rng, n, 4, 1.3)
	x, w := randTensor(rng, n, d1), randTensor(rng, d1, d2)
	spmm, err := BuildSpMM(a, expr.MLPMessage(n, d1, d2), []*tensor.Tensor{x, w}, AggSum, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sddmm, err := BuildSDDMM(a, expr.DotAttention(n, d1), []*tensor.Tensor{x}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fused, err := BuildFusedAttention(a, x, x, tensor.New(a.NNZ(), 1), tensor.New(a.NNZ(), 1), FusedAttnConfig{Scale: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if spmm.maxTile == 0 || spmm.tmpLen == 0 || fused.maxInDeg == 0 {
		t.Fatalf("empty scratch: tile %d, MLP buffer %d, scores %d", spmm.maxTile, spmm.tmpLen, fused.maxInDeg)
	}
	for _, kind := range []struct {
		name string
		slot func() [][2]uintptr
	}{
		{"spmm", func() [][2]uintptr {
			sc := spmm.newScratch()
			return [][2]uintptr{envLines(sc.env), floatLines(sc.msg), floatLines(sc.tmp)}
		}},
		{"sddmm", func() [][2]uintptr { return [][2]uintptr{envLines(sddmm.compiled.NewEnv())} }},
		{"fusedattn", func() [][2]uintptr { return [][2]uintptr{floatLines(newFusedAttnScratch(fused.maxInDeg).scores)} }},
	} {
		slot0, slot1 := kind.slot(), kind.slot()
		for _, r0 := range slot0 {
			for _, r1 := range slot1 {
				if r0[0] <= r1[1] && r1[0] <= r0[1] {
					t.Errorf("%s: slot 0's lines %#x–%#x and slot 1's %#x–%#x overlap", kind.name, r0[0], r0[1], r1[0], r1[1])
				}
			}
		}
	}
}
