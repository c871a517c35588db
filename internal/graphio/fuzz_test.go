package graphio

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"featgraph/internal/durable"
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

func FuzzLoadGraph(f *testing.F) {
	// A well-formed container, then v1 bytes that must now be rejected
	// with a typed error: a whole v1 file and the historical crashers
	// whose headers declared huge arrays.
	rng := rand.New(rand.NewSource(1))
	g := sparse.Random(rng, 12, 10, 3)
	var v2 bytes.Buffer
	if err := WriteGraph(&v2, g); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(v1Graph)
	f.Add(append([]byte("FGG1"), le32(100, 100, 1<<30)...))
	f.Add(append([]byte("FGG1"), le32(1<<30, 1<<30, 1<<29)...))
	f.Add([]byte("FGDC"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadGraph(bytes.NewReader(data))
		requireTypedOrNil(t, err)
		if err != nil {
			return
		}
		if verr := got.Validate(); verr != nil {
			t.Fatalf("accepted structurally invalid graph: %v", verr)
		}
		var re bytes.Buffer
		if err := WriteGraph(&re, got); err != nil {
			t.Fatalf("re-encoding accepted graph failed: %v", err)
		}
		again, err := ReadGraph(&re)
		if err != nil {
			t.Fatalf("re-reading re-encoded graph failed: %v", err)
		}
		if again.NumRows != got.NumRows || again.NumCols != got.NumCols || again.NNZ() != got.NNZ() {
			t.Fatal("round trip changed dimensions")
		}
	})
}

// FuzzLoadShard drives the sharded out-of-core loader end to end:
// arbitrary bytes must open with a typed error or parse into shards that
// all pin and materialize into a structurally valid graph, which must
// round-trip through the writer. Seeds cover both degenerate shapes
// (zero edges) and the adversarial manifests that motivated the format's
// validation: huge declared counts, shard spans outside the graph, and
// row pointers disagreeing with shard boundaries.
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
		s, err := OpenShardedReader(bytes.NewReader(data), int64(len(data)), ShardedOptions{})
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
		perr := pinAll(s)
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
