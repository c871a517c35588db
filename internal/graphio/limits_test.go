package graphio

import (
	"errors"
	"io"
	"testing"

	"featgraph/internal/sparse"
)

// These are the regressions for the silent-truncation bug: WriteGraph
// narrows counts to u32 header fields, so any count past the format limit
// used to wrap silently and produce a well-checksummed file describing a
// different graph. Writers must now refuse with a typed *LimitError before
// emitting a single byte.

func wantLimitError(t *testing.T, err error, field string) {
	t.Helper()
	if err == nil {
		t.Fatalf("want *LimitError for %s, got nil", field)
	}
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("want *LimitError for %s, got %T: %v", field, err, err)
	}
	if le.Field != field {
		t.Fatalf("LimitError field %q, want %q", le.Field, field)
	}
	if le.Error() == "" {
		t.Fatal("LimitError has empty message")
	}
}

func TestWriteGraphRefusesOversizedCounts(t *testing.T) {
	// A structurally empty CSR whose declared dimensions exceed the
	// format's u32-representable range. The limit check must fire before
	// Validate ever walks the (deliberately absent) arrays.
	cases := []struct {
		name  string
		g     *sparse.CSR
		field string
	}{
		{"rows", &sparse.CSR{NumRows: maxDim + 1, RowPtr: []int32{0}}, "rows"},
		{"cols", &sparse.CSR{NumCols: maxDim + 1, RowPtr: []int32{0}}, "cols"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := WriteGraph(io.Discard, tc.g)
			wantLimitError(t, err, tc.field)
		})
	}
}

func TestGraphLimitsBounds(t *testing.T) {
	if err := graphLimits(maxDim, maxDim, maxDim); err != nil {
		t.Fatalf("counts at the limit must pass: %v", err)
	}
	wantLimitError(t, graphLimits(maxDim+1, 1, 1), "rows")
	wantLimitError(t, graphLimits(1, maxDim+1, 1), "cols")
	wantLimitError(t, graphLimits(1, 1, maxDim+1), "nnz")
}

// A graph at exactly the limit still writes; one past it never reaches the
// writer. This pins the boundary so the limit cannot quietly drift.
func TestWriteGraphLimitBoundary(t *testing.T) {
	g := &sparse.CSR{NumRows: 1, NumCols: 1, RowPtr: []int32{0, 0}}
	if err := WriteGraph(io.Discard, g); err != nil {
		t.Fatalf("small graph must write: %v", err)
	}
}
