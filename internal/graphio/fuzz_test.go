package graphio

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"featgraph/internal/durable"
	"featgraph/internal/partition"
	"featgraph/internal/sparse"
)

// The durability contract under fuzzing: arbitrary bytes fed to a loader
// must either parse into a structurally valid object or return a typed
// error (*durable.CorruptError / *durable.VersionError). Panics, untyped
// errors, and structurally invalid "successes" are all bugs. Accepted
// inputs must also round-trip: re-encoding and re-reading yields the same
// object.

func requireTypedOrNil(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		return
	}
	var ce *durable.CorruptError
	var ve *durable.VersionError
	if !errors.As(err, &ce) && !errors.As(err, &ve) {
		t.Fatalf("untyped error %T: %v", err, err)
	}
}

// FuzzLoadGraph drives LoadGraph, the whole-graph loader, over file
// bytes: a well-formed graph file, then bytes that must be rejected with a
// typed error naming the file: a whole v1 file, the historical crashers
// whose v1 headers declared huge arrays, a bare container preamble and a
// graph-v2 container from the release before the gshard format.
func FuzzLoadGraph(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	g := sparse.Random(rng, 12, 10, 3)
	var well bytes.Buffer
	if err := WriteSharded(&well, g, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(well.Bytes())
	f.Add(v1Graph)
	f.Add(append([]byte("FGG1"), le32(100, 100, 1<<30)...))
	f.Add(append([]byte("FGG1"), le32(1<<30, 1<<30, 1<<29)...))
	f.Add([]byte("FGDC"))
	f.Add(graphV2Blob(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "g.fgs")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadGraph(path)
		var le *LimitError
		if errors.As(err, &le) {
			return // validly sharded but too large to assemble in memory
		}
		requireTypedOrNil(t, err)
		var ce *durable.CorruptError
		if errors.As(err, &ce) && ce.Path != path {
			t.Fatalf("error path %q, want %q: %v", ce.Path, path, err)
		}
		if err != nil {
			return
		}
		if verr := got.Validate(); verr != nil {
			t.Fatalf("accepted structurally invalid graph: %v", verr)
		}
		again := filepath.Join(dir, "again.fgs")
		if err := SaveSharded(again, got, 0); err != nil {
			t.Fatalf("re-saving accepted graph failed: %v", err)
		}
		g2, err := LoadGraph(again)
		if err != nil {
			t.Fatalf("re-loading re-saved graph failed: %v", err)
		}
		sameCSR(t, g2, got, "round trip")
	})
}

// FuzzLoadShard drives the sharded out-of-core loader end to end:
// arbitrary bytes must open with a typed error or parse into shards that
// all pin and materialize into a structurally valid graph, which must
// round-trip through the writer. Every shard that pins passes Validate —
// the contract the sharded kernels build on without validating again —
// over fresh arrays in the first round and recycled ones in the second
// (the handle's one-byte budget evicts each shard on release), and equals
// its extraction from the materialized graph. Seeds cover both degenerate
// shapes (zero edges) and the adversarial manifests that motivated the
// format's validation: huge declared counts, shard spans outside the
// graph, and row pointers disagreeing with shard boundaries (the corpus's
// misaligned-shard holds misalignedShardBlob).
func FuzzLoadShard(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	g := sparse.Random(rng, 20, 15, 4)
	var well bytes.Buffer
	if err := WriteSharded(&well, g, 16); err != nil {
		f.Fatal(err)
	}
	f.Add(well.Bytes())
	var empty bytes.Buffer
	if err := WriteSharded(&empty, &sparse.CSR{NumRows: 3, NumCols: 2, RowPtr: make([]int32, 4)}, 8); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	// Historical crasher shapes: truncation mid-payload, a flipped byte in
	// the manifest, and a bare container preamble.
	f.Add(well.Bytes()[:len(well.Bytes())/2])
	flipped := append([]byte{}, well.Bytes()...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("FGDC"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := OpenShardedReader(bytes.NewReader(data), int64(len(data)), ShardedOptions{BudgetBytes: 1})
		requireTypedOrNil(t, err)
		if err != nil {
			return
		}
		defer s.Close()
		// Materialize first, on the fresh handle: it decodes without Pin,
		// so it must meet damaged payloads itself and fail closed.
		ctx := context.Background()
		got, merr := s.Materialize(ctx)
		var le *LimitError
		if !errors.As(merr, &le) {
			requireTypedOrNil(t, merr)
		}
		var perr error
		for round := 0; round < 2 && perr == nil; round++ {
			edgeLo := 0
			for i := 0; i < s.NumShards(); i++ {
				csr, unpin, err := s.Pin(ctx, i)
				if perr = err; err != nil {
					break
				}
				if verr := csr.Validate(); verr != nil {
					t.Fatalf("round %d: shard %d pinned but fails Validate: %v", round, i, verr)
				}
				rowLo, rowHi := s.ShardRows(i)
				edgeHi := edgeLo + int(s.ShardNNZ(i))
				if merr == nil {
					sameCSR(t, csr, partition.ExtractShard(got, partition.EdgeShard{RowLo: rowLo, RowHi: rowHi, EdgeLo: edgeLo, EdgeHi: edgeHi}), fmt.Sprintf("round %d shard %d", round, i))
				}
				edgeLo = edgeHi
				unpin()
			}
		}
		requireTypedOrNil(t, perr)
		if merr == nil && perr != nil {
			t.Fatalf("materialize accepted a file whose shards fail to pin: %v", perr)
		}
		if merr != nil || perr != nil {
			return // damaged, or validly sharded but too large to assemble in memory
		}
		if verr := got.Validate(); verr != nil {
			t.Fatalf("accepted structurally invalid sharded graph: %v", verr)
		}
		var re bytes.Buffer
		if err := WriteSharded(&re, got, 16); err != nil {
			t.Fatalf("re-encoding accepted sharded graph failed: %v", err)
		}
		s2, err := OpenShardedReader(bytes.NewReader(re.Bytes()), int64(re.Len()), ShardedOptions{})
		if err != nil {
			t.Fatalf("re-reading re-encoded sharded graph failed: %v", err)
		}
		defer s2.Close()
		r2, c2, n2 := s2.Dims()
		if r2 != got.NumRows || c2 != got.NumCols || n2 != int64(got.NNZ()) {
			t.Fatal("round trip changed dimensions")
		}
	})
}
