// Package schedule implements the feature dimension schedule (FDS) of
// FeatGraph: the user-facing description of how a UDF's feature dimension
// computation should be optimized, decoupled from the sparse template's own
// graph traversal optimizations.
//
// The paper's FDS primitives are mirrored directly:
//
//   - Split(axis, factor): tile an axis, the CPU cache optimization of
//     Figures 3a and 8.
//   - Bind(axis, BlockX/ThreadX): parallelize an axis across simulated CUDA
//     blocks or threads, as in Figures 3a and 9.
//   - TreeReduce(axis, ThreadX): tree-based parallel reduction over a
//     reduction axis, the GPU dot-product optimization of Figure 4a.
//
// An FDS is validated against a concrete UDF when the kernel is built; the
// same UDF can be paired with different FDSes per target, exactly as in the
// paper's example code.
package schedule

import (
	"fmt"

	"featgraph/internal/expr"
)

// Resource identifies a simulated hardware execution resource an axis can
// be bound to.
type Resource int

// Bindable resources. BlockX maps an axis across CUDA blocks; ThreadX maps
// an axis across the threads of one block.
const (
	BlockX Resource = iota
	ThreadX
)

func (r Resource) String() string {
	if r == BlockX {
		return "block.x"
	}
	return "thread.x"
}

// FDS is a feature dimension schedule: an ordered set of directives applied
// to a UDF's axes. The zero value is the empty schedule, which degrades
// FeatGraph to a traditional graph processing system (§III-B).
type FDS struct {
	splits     map[*expr.Axis]int
	bindings   map[*expr.Axis]Resource
	treeReduce map[*expr.Axis]Resource
	order      []string // human-readable directive log, in application order
}

// New returns an empty FDS.
func New() *FDS {
	return &FDS{
		splits:     make(map[*expr.Axis]int),
		bindings:   make(map[*expr.Axis]Resource),
		treeReduce: make(map[*expr.Axis]Resource),
	}
}

// Split tiles axis by factor: the axis is processed in contiguous chunks of
// at most factor elements, interleaved with the template's graph partitions.
// Returns the FDS for chaining.
func (s *FDS) Split(axis *expr.Axis, factor int) *FDS {
	if factor <= 0 {
		panic(fmt.Sprintf("schedule: split factor must be positive, got %d", factor))
	}
	s.splits[axis] = factor
	s.order = append(s.order, fmt.Sprintf("split(%s, %d)", axis.Name, factor))
	return s
}

// Bind maps axis onto a simulated GPU resource.
func (s *FDS) Bind(axis *expr.Axis, r Resource) *FDS {
	s.bindings[axis] = r
	s.order = append(s.order, fmt.Sprintf("bind(%s, %s)", axis.Name, r))
	return s
}

// TreeReduce requests a tree-based parallel reduction of the given reduce
// axis across the threads of a block.
func (s *FDS) TreeReduce(axis *expr.Axis, r Resource) *FDS {
	if r != ThreadX {
		panic("schedule: tree reduction only supports thread.x")
	}
	s.treeReduce[axis] = r
	s.order = append(s.order, fmt.Sprintf("tree_reduce(%s, %s)", axis.Name, r))
	return s
}

// SplitFactor returns the tiling factor for axis, or 0 if the axis is not
// split.
func (s *FDS) SplitFactor(axis *expr.Axis) int {
	if s == nil || s.splits == nil {
		return 0
	}
	return s.splits[axis]
}

// Binding returns the resource axis is bound to and whether a binding
// exists.
func (s *FDS) Binding(axis *expr.Axis) (Resource, bool) {
	if s == nil || s.bindings == nil {
		return 0, false
	}
	r, ok := s.bindings[axis]
	return r, ok
}

// HasTreeReduce reports whether axis has a tree-reduction directive.
func (s *FDS) HasTreeReduce(axis *expr.Axis) bool {
	if s == nil || s.treeReduce == nil {
		return false
	}
	_, ok := s.treeReduce[axis]
	return ok
}

// String renders the schedule compactly, e.g.
// "fds{split(i, 8); bind(i, thread.x)}".
func (s *FDS) String() string {
	if s == nil || len(s.order) == 0 {
		return "fds{}"
	}
	out := "fds{"
	for i, d := range s.order {
		if i > 0 {
			out += "; "
		}
		out += d
	}
	return out + "}"
}

// Validate checks that every scheduled axis belongs to the UDF: split and
// bind directives must name output axes; tree-reduce must name
// a reduce axis (an axis that is not an output axis). Returns a descriptive
// error for the first violation.
func (s *FDS) Validate(u *expr.UDF) error {
	if s == nil {
		return nil
	}
	isOut := make(map[*expr.Axis]bool, len(u.OutAxes))
	for _, a := range u.OutAxes {
		isOut[a] = true
	}
	inUDF := u.Owns
	for a := range s.splits {
		if !inUDF(a) {
			return fmt.Errorf("schedule: split axis %s not in UDF", a.Name)
		}
	}
	for a, r := range s.bindings {
		if !inUDF(a) {
			return fmt.Errorf("schedule: bind axis %s not in UDF", a.Name)
		}
		if !isOut[a] {
			return fmt.Errorf("schedule: bind(%s, %s) targets a reduce axis; use TreeReduce", a.Name, r)
		}
	}
	for a := range s.treeReduce {
		if !inUDF(a) {
			return fmt.Errorf("schedule: tree_reduce axis %s not in UDF", a.Name)
		}
		if isOut[a] {
			return fmt.Errorf("schedule: tree_reduce(%s) targets an output axis; use Bind", a.Name)
		}
	}
	return nil
}
