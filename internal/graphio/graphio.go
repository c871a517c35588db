// Package graphio serializes graphs in a compact binary format, so
// generated benchmark datasets can be produced once (cmd/featgen) and
// reloaded across runs instead of being regenerated.
//
// Every graph file is a durable section container (internal/durable) of
// kind "gshard", version 1 (shard.go): u64 counts, per-section CRC32-C
// checksums, and the edge arrays cut into shards that ShardedCSR streams
// under a residency budget or Materialize assembles into one CSR. Files
// are written atomically (temp + fsync + rename), so a crash mid-save
// leaves the previous file intact instead of a truncated hybrid, and any
// corruption surfaces as a typed *durable.CorruptError — never a panic,
// never silently wrong data. Any other bytes fail the same way, the two
// graph formats that predate this one included: the unchecksummed v1
// layout fails the container's magic check, and the unsharded v2
// container fails its kind check.
package graphio

import (
	"context"
	"fmt"

	"featgraph/internal/sparse"
)

// maxDim bounds the edge count of one shard, and of a graph materialized
// into one CSR: in-memory CSR arrays are int32-indexed.
const maxDim = 1 << 30

// LimitError reports a graph whose counts exceed what a representation
// can hold: Materialize returns it for a file whose edge count is past the
// int32-indexed in-memory CSR, instead of narrowing the count silently.
type LimitError struct {
	Kind  string // the container kind, "gshard"
	Field string // which count exceeded the limit
	Value int64
	Max   int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("graphio: %s %s %d exceeds the format limit %d", e.Kind, e.Field, e.Value, e.Max)
}

// LoadGraph reads a graph file into one in-memory CSR (OpenSharded
// streams one instead). Damage, and a file of any other kind or format
// generation, fails with a *durable.CorruptError carrying the path.
func LoadGraph(path string) (*sparse.CSR, error) {
	s, err := OpenSharded(path, ShardedOptions{})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Materialize(context.Background())
}
