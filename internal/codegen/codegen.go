// Package codegen lowers FeatGraph UDF expressions into executable Go
// evaluators, playing the role TVM's code generation plays in the paper.
//
// Two lowering paths exist, mirroring how a tensor compiler treats the same
// kernel specification:
//
//   - Compile turns any UDF into a CompiledUDF whose Eval walks a closure
//     tree built once per kernel. This is the fully general path; it
//     supports arbitrary expressions, reduction nests, and evaluation of
//     sub-ranges of the output axis so the templates can interleave
//     feature tiles with graph partitions.
//   - Recognize detects the handful of UDF shapes that dominate GNN
//     workloads (copy-src for GCN aggregation, src·dst dot products for
//     attention, attention-weighted copies, ...) so the templates can
//     dispatch to hand-scheduled loop nests, just as FeatGraph's TVM IR
//     templates emit specialized code for common message functions.
//
// The two paths agree within oracle.DefaultTol, not bit for bit: the
// hand-scheduled loops fold several neighbours per pass and sum dot products
// in four chains, so they round differently from the serial closure walk
// (DESIGN.md §11.1). The oracle corpus holds every fast path to the
// Compile-based references (core.ReferenceSpMM/ReferenceSDDMM) within that
// tolerance.
package codegen

import (
	"fmt"
	"math"

	"featgraph/internal/expr"
	"featgraph/internal/tensor"
)

// CompiledUDF is an executable form of a UDF with inputs bound to concrete
// tensors. It is safe for concurrent use: evaluation state lives in an Env
// owned by each calling goroutine.
type CompiledUDF struct {
	udf    *expr.UDF
	eval   evalFunc
	outLen int

	// axisDims[j] is the extent of the j-th output axis; axisSlots[j] its
	// env slot. Used to decompose a flat output position into axis values.
	axisDims  []int
	axisSlots []int
	numSlots  int
}

// Env holds per-goroutine evaluation state: one slot per axis plus three
// trailing slots for the special variables src, dst, eid.
type Env struct {
	slots []int32
}

type evalFunc func(env []int32) float32

// Compile binds udf's placeholders to inputs (positionally, in builder
// declaration order) and lowers the body to an evaluator. It returns an
// error if the number or shapes of inputs do not match the placeholders.
func Compile(udf *expr.UDF, inputs []*tensor.Tensor) (*CompiledUDF, error) {
	if len(inputs) != len(udf.Inputs) {
		return nil, fmt.Errorf("codegen: UDF has %d placeholders, got %d inputs", len(udf.Inputs), len(inputs))
	}
	for i, p := range udf.Inputs {
		in := inputs[i]
		if in.Rank() != len(p.Shape) {
			return nil, fmt.Errorf("codegen: input %d (%s) rank %d, placeholder wants %d", i, p.Name, in.Rank(), len(p.Shape))
		}
		for d, want := range p.Shape {
			if in.Dim(d) != want {
				return nil, fmt.Errorf("codegen: input %d (%s) dim %d is %d, placeholder wants %d", i, p.Name, d, in.Dim(d), want)
			}
		}
	}
	c := &CompiledUDF{udf: udf, outLen: udf.OutLen(), numSlots: udf.NumSlots}
	for _, a := range udf.OutAxes {
		c.axisDims = append(c.axisDims, a.Extent)
		c.axisSlots = append(c.axisSlots, a.Slot())
	}
	var err error
	c.eval, err = lower(udf.Body, udf, inputs)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// NewEnv allocates evaluation state for one goroutine.
func (c *CompiledUDF) NewEnv() *Env {
	return &Env{slots: make([]int32, c.numSlots+3)}
}

// OutLen returns the flattened output length of the UDF.
func (c *CompiledUDF) OutLen() int { return c.outLen }

// UDF returns the source UDF.
func (c *CompiledUDF) UDF() *expr.UDF { return c.udf }

// Eval computes out[0:hi-lo] = udf(src, dst, eid)[lo:hi], the sub-range
// [lo, hi) of the flattened output. Templates use sub-range evaluation to
// fuse feature dimension tiling with graph partitioning.
func (c *CompiledUDF) Eval(env *Env, src, dst, eid int32, out []float32, lo, hi int) {
	if hi-lo != len(out) {
		panic(fmt.Sprintf("codegen: Eval range [%d,%d) does not match out length %d", lo, hi, len(out)))
	}
	s := env.slots
	s[c.numSlots+0] = src
	s[c.numSlots+1] = dst
	s[c.numSlots+2] = eid
	for pos := lo; pos < hi; pos++ {
		// Decompose pos into output axis coordinates (row-major).
		rem := pos
		for j := len(c.axisDims) - 1; j >= 0; j-- {
			s[c.axisSlots[j]] = int32(rem % c.axisDims[j])
			rem /= c.axisDims[j]
		}
		out[pos-lo] = c.eval(s)
	}
}

// EvalAll computes the full output vector.
func (c *CompiledUDF) EvalAll(env *Env, src, dst, eid int32, out []float32) {
	c.Eval(env, src, dst, eid, out, 0, c.outLen)
}

// lower compiles an expression node into an evalFunc closure tree.
func lower(e expr.Expr, udf *expr.UDF, inputs []*tensor.Tensor) (evalFunc, error) {
	switch n := e.(type) {
	case expr.Const:
		v := float32(n)
		return func([]int32) float32 { return v }, nil

	case *expr.Load:
		return lowerLoad(n, udf, inputs)

	case *expr.Unary:
		a, err := lower(n.A, udf, inputs)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case expr.OpNeg:
			return func(env []int32) float32 { return -a(env) }, nil
		case expr.OpAbs:
			return func(env []int32) float32 {
				v := a(env)
				if v < 0 {
					return -v
				}
				return v
			}, nil
		case expr.OpExp:
			return func(env []int32) float32 { return float32(math.Exp(float64(a(env)))) }, nil
		case expr.OpLog:
			return func(env []int32) float32 { return float32(math.Log(float64(a(env)))) }, nil
		case expr.OpSqrt:
			return func(env []int32) float32 { return float32(math.Sqrt(float64(a(env)))) }, nil
		case expr.OpSigmoid:
			return func(env []int32) float32 { return float32(1 / (1 + math.Exp(-float64(a(env))))) }, nil
		case expr.OpTanh:
			return func(env []int32) float32 { return float32(math.Tanh(float64(a(env)))) }, nil
		default:
			return nil, fmt.Errorf("codegen: unknown unary op %v", n.Op)
		}

	case *expr.Binary:
		a, err := lower(n.A, udf, inputs)
		if err != nil {
			return nil, err
		}
		b, err := lower(n.B, udf, inputs)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case expr.OpAdd:
			return func(env []int32) float32 { return a(env) + b(env) }, nil
		case expr.OpSub:
			return func(env []int32) float32 { return a(env) - b(env) }, nil
		case expr.OpMul:
			return func(env []int32) float32 { return a(env) * b(env) }, nil
		case expr.OpDiv:
			return func(env []int32) float32 { return a(env) / b(env) }, nil
		case expr.OpMax:
			return func(env []int32) float32 {
				x, y := a(env), b(env)
				if x > y {
					return x
				}
				return y
			}, nil
		case expr.OpMin:
			return func(env []int32) float32 {
				x, y := a(env), b(env)
				if x < y {
					return x
				}
				return y
			}, nil
		default:
			return nil, fmt.Errorf("codegen: unknown binary op %v", n.Op)
		}

	case *expr.Reduce:
		body, err := lower(n.Body, udf, inputs)
		if err != nil {
			return nil, err
		}
		slot := n.Axis.Slot()
		extent := int32(n.Axis.Extent)
		switch n.Op {
		case expr.ReduceSum:
			return func(env []int32) float32 {
				var acc float32
				for k := int32(0); k < extent; k++ {
					env[slot] = k
					acc += body(env)
				}
				return acc
			}, nil
		case expr.ReduceMax:
			return func(env []int32) float32 {
				// An empty reduction yields 0, not -Inf: finite semantics
				// for zero-extent axes, matching the aggregation operators'
				// empty-neighborhood convention.
				if extent == 0 {
					return 0
				}
				acc := float32(math.Inf(-1))
				for k := int32(0); k < extent; k++ {
					env[slot] = k
					if v := body(env); v > acc {
						acc = v
					}
				}
				return acc
			}, nil
		default:
			return nil, fmt.Errorf("codegen: unknown reduce op %v", n.Op)
		}

	default:
		return nil, fmt.Errorf("codegen: unknown expression node %T", e)
	}
}

// lowerLoad compiles a placeholder access into an offset computation over
// the bound tensor's row-major layout. Each index contributes
// slotValue*stride; special variables read the trailing env slots.
func lowerLoad(l *expr.Load, udf *expr.UDF, inputs []*tensor.Tensor) (evalFunc, error) {
	data := inputs[l.P.ID()].Data()
	shape := l.P.Shape
	// strides[d] = product of extents of dims after d.
	strides := make([]int32, len(shape))
	s := int32(1)
	for d := len(shape) - 1; d >= 0; d-- {
		strides[d] = s
		s *= int32(shape[d])
	}
	type term struct {
		slot   int
		stride int32
	}
	terms := make([]term, len(l.Idx))
	for d, ix := range l.Idx {
		switch v := ix.(type) {
		case *expr.Axis:
			terms[d] = term{v.Slot(), strides[d]}
		case expr.Special:
			terms[d] = term{udf.NumSlots + int(v), strides[d]}
		default:
			return nil, fmt.Errorf("codegen: unknown index kind %T", ix)
		}
	}
	// Specialize the common ranks to avoid the loop overhead.
	switch len(terms) {
	case 1:
		t0 := terms[0]
		return func(env []int32) float32 {
			return data[env[t0.slot]*t0.stride]
		}, nil
	case 2:
		t0, t1 := terms[0], terms[1]
		return func(env []int32) float32 {
			return data[env[t0.slot]*t0.stride+env[t1.slot]*t1.stride]
		}, nil
	case 3:
		t0, t1, t2 := terms[0], terms[1], terms[2]
		return func(env []int32) float32 {
			return data[env[t0.slot]*t0.stride+env[t1.slot]*t1.stride+env[t2.slot]*t2.stride]
		}, nil
	default:
		return func(env []int32) float32 {
			var off int32
			for _, t := range terms {
				off += env[t.slot] * t.stride
			}
			return data[off]
		}, nil
	}
}

// Cost estimation for the simulated-GPU time model. The weights mirror the
// cudasim cost constants (global load 4, arithmetic 1) without importing
// that package.

// EstimateCostPerElem returns the simulated cycles needed to produce one
// output element of the UDF: loads weighted as global memory accesses,
// arithmetic as single-cycle ops, reductions multiplied by their extent.
func EstimateCostPerElem(u *expr.UDF) uint64 {
	return estimateCost(u.Body)
}

func estimateCost(e expr.Expr) uint64 {
	switch n := e.(type) {
	case expr.Const:
		return 0
	case *expr.Load:
		return 4
	case *expr.Unary:
		return estimateCost(n.A) + 2 // transcendentals cost a few cycles
	case *expr.Binary:
		return estimateCost(n.A) + estimateCost(n.B) + 1
	case *expr.Reduce:
		return uint64(n.Axis.Extent) * (estimateCost(n.Body) + 1)
	default:
		return 1
	}
}
