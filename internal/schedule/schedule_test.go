package schedule

import (
	"strings"
	"testing"

	"featgraph/internal/expr"
)

func mlp(t *testing.T) (*expr.UDF, *expr.Axis, *expr.Axis) {
	t.Helper()
	b := expr.NewBuilder()
	x := b.Placeholder("X", 4, 8)
	w := b.Placeholder("W", 8, 2)
	i := b.OutAxis("i", 2)
	k := b.ReduceAxis("k", 8)
	u := b.UDF(expr.Sum(k, expr.Mul(expr.Add(x.At(expr.Src, k), x.At(expr.Dst, k)), w.At(k, i))), i)
	return u, i, k
}

func TestEmptyScheduleValidates(t *testing.T) {
	u, _, _ := mlp(t)
	var s *FDS
	if err := s.Validate(u); err != nil {
		t.Fatalf("nil FDS should validate: %v", err)
	}
	if s.SplitFactor(u.OutAxes[0]) != 0 {
		t.Fatal("nil FDS should report no split")
	}
	if _, ok := s.Binding(u.OutAxes[0]); ok {
		t.Fatal("nil FDS should report no binding")
	}
	if s.String() != "fds{}" {
		t.Fatalf("nil FDS String = %q", s.String())
	}
}

func TestSplitAndQueries(t *testing.T) {
	u, i, k := mlp(t)
	s := New().Split(i, 8).Split(k, 4)
	if err := s.Validate(u); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if s.SplitFactor(i) != 8 || s.SplitFactor(k) != 4 {
		t.Fatalf("split factors: %d, %d", s.SplitFactor(i), s.SplitFactor(k))
	}
	if got := s.String(); !strings.Contains(got, "split(i, 8)") || !strings.Contains(got, "split(k, 4)") {
		t.Fatalf("String = %q", got)
	}
}

func TestBindAndTreeReduce(t *testing.T) {
	u, i, k := mlp(t)
	s := New().Bind(i, BlockX).TreeReduce(k, ThreadX)
	if err := s.Validate(u); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	r, ok := s.Binding(i)
	if !ok || r != BlockX {
		t.Fatalf("Binding(i) = %v, %v", r, ok)
	}
	if !s.HasTreeReduce(k) {
		t.Fatal("HasTreeReduce(k) should be true")
	}
	if s.HasTreeReduce(i) {
		t.Fatal("HasTreeReduce(i) should be false")
	}
}

func TestValidateRejectsMisuse(t *testing.T) {
	u, i, k := mlp(t)
	if err := New().Bind(k, ThreadX).Validate(u); err == nil {
		t.Error("bind of reduce axis should fail validation")
	}
	if err := New().TreeReduce(i, ThreadX).Validate(u); err == nil {
		t.Error("tree_reduce of output axis should fail validation")
	}

	// Axis from a different, larger builder is not in this UDF.
	b2 := expr.NewBuilder()
	b2.OutAxis("pad0", 2)
	b2.OutAxis("pad1", 2)
	foreign := b2.OutAxis("z", 2)
	if err := New().Split(foreign, 2).Validate(u); err == nil {
		t.Error("split of foreign axis should fail validation")
	}
}

func TestSplitFactorMustBePositive(t *testing.T) {
	_, i, _ := mlp(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Split(axis, 0) should panic")
		}
	}()
	New().Split(i, 0)
}

func TestTreeReduceRequiresThreadX(t *testing.T) {
	_, _, k := mlp(t)
	defer func() {
		if recover() == nil {
			t.Fatal("TreeReduce with BlockX should panic")
		}
	}()
	New().TreeReduce(k, BlockX)
}

func TestDirectivesLogOrder(t *testing.T) {
	_, i, k := mlp(t)
	s := New().Split(i, 8).Bind(i, ThreadX).TreeReduce(k, ThreadX)
	if got, want := s.String(), "fds{split(i, 8); bind(i, thread.x); tree_reduce(k, thread.x)}"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestResourceString(t *testing.T) {
	if BlockX.String() != "block.x" || ThreadX.String() != "thread.x" {
		t.Fatal("Resource strings wrong")
	}
}
