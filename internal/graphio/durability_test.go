package graphio

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"featgraph/internal/durable"
	"featgraph/internal/faultinject"
	"featgraph/internal/sparse"
)

// v1Graph is a well-formed file in the unchecksummed v1 layout that
// predates the container ("FGG1", u32 rows/cols/nnz, then rowptr, colidx,
// eid and val): a 2×2 graph with one edge. No reader accepts it any more.
var v1Graph = append(append([]byte("FGG1"), le32(2, 2, 1, 0, 1, 1, 0, 0)...), le32(math.Float32bits(1))...)

// TestLoadAnyGraphRejectsV1File: a v1 file handed to the tools' loader
// fails the container's magic check with a typed error naming the file,
// which is what `traingnn -graph old.fgg` reports.
func TestLoadAnyGraphRejectsV1File(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.fgg")
	if err := os.WriteFile(path, v1Graph, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadAnyGraph(path)
	var ce *durable.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *durable.CorruptError, got %T: %v", err, err)
	}
	if ce.Path != path || ce.Kind != graphKind || !strings.Contains(ce.Reason, "bad magic") {
		t.Fatalf("error %+v, want kind %q, path %q and a bad-magic reason", ce, graphKind, path)
	}
}

// TestValSectionLengthMismatchReportsGraphKind: a container whose sections
// all checksum cleanly but whose val section disagrees with the header's
// edge count is damage to a graph, reported against the val section.
func TestValSectionLengthMismatchReportsGraphKind(t *testing.T) {
	var buf bytes.Buffer
	dw, err := durable.NewWriter(&buf, graphKind, graphVersion, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range []struct {
		name    string
		payload []byte
	}{
		{"header", le32(2, 2, 1)}, // one edge declared
		{"rowptr", le32(0, 1, 1)},
		{"colidx", le32(0)},
		{"eid", le32(0)},
		{"val", le32(math.Float32bits(1), math.Float32bits(2))}, // two values stored
	} {
		if err := dw.Section(sec.name, sec.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = ReadGraph(&buf)
	var ce *durable.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *durable.CorruptError, got %T: %v", err, err)
	}
	if ce.Kind != graphKind || ce.Section != "val" {
		t.Fatalf("error kind %q section %q, want %q and %q", ce.Kind, ce.Section, graphKind, "val")
	}
}

// TestSaveGraphSurvivesTornWrite is the regression for the original
// non-atomic SaveGraph: a crash mid-write used to leave a truncated file
// that a later LoadGraph misparsed. Routed through the atomic writer, a
// torn write fails the save and the previous file still loads bitwise
// intact.
func TestSaveGraphSurvivesTornWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.fgg")
	rng := rand.New(rand.NewSource(9))
	old := sparse.Random(rng, 30, 30, 4)
	if err := SaveGraph(path, old); err != nil {
		t.Fatal(err)
	}
	replacement := sparse.Random(rng, 50, 50, 6)
	defer faultinject.Arm(faultinject.SiteDurableTornWrite, &faultinject.Fault{Kind: faultinject.Err})()
	if err := SaveGraph(path, replacement); err == nil {
		t.Fatal("torn write should fail the save")
	}
	got, err := LoadGraph(path)
	if err != nil {
		t.Fatalf("previous file damaged by torn write: %v", err)
	}
	if got.NumRows != old.NumRows || got.NNZ() != old.NNZ() {
		t.Fatal("previous file content changed")
	}
	for i := range old.ColIdx {
		if got.ColIdx[i] != old.ColIdx[i] {
			t.Fatalf("previous file entry %d changed", i)
		}
	}
}

func TestSaveGraphSurvivesFsyncFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.fgg")
	rng := rand.New(rand.NewSource(11))
	old := sparse.Random(rng, 20, 20, 3)
	if err := SaveGraph(path, old); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Arm(faultinject.SiteDurableFsync, &faultinject.Fault{Kind: faultinject.Err})()
	if err := SaveGraph(path, sparse.Random(rng, 30, 30, 4)); err == nil {
		t.Fatal("fsync failure should fail the save")
	}
	got, err := LoadGraph(path)
	if err != nil || got.NumRows != old.NumRows || got.NNZ() != old.NNZ() {
		t.Fatalf("previous graph damaged: %v", err)
	}
}

// TestCorruptionMatrixGraphFormat runs the durability acceptance matrix
// over the current graph container: truncation at every boundary and a bit
// flip in every section must yield typed errors, never panics or silent
// garbage.
func TestCorruptionMatrixGraphFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := sparse.Random(rng, 25, 25, 4)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	err := durable.VerifyReader(buf.Bytes(), func(data []byte) error {
		_, err := ReadGraph(bytes.NewReader(data))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCorruptionMatrixShardFormat runs the acceptance matrix over the
// sharded out-of-core container. Payload verification is lazy in this
// format, so the read closure pins every shard and, on a fresh handle,
// runs Materialize (which decodes without Pin) — damage anywhere, from the
// header through the last shard's checksum, must still surface as a typed
// error from both and never a panic or silent acceptance.
func TestCorruptionMatrixShardFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := sparse.Random(rng, 30, 25, 5)
	var buf bytes.Buffer
	if err := WriteSharded(&buf, g, 16); err != nil {
		t.Fatal(err)
	}
	open := func(data []byte) (*ShardedCSR, error) {
		return OpenShardedReader(bytes.NewReader(data), int64(len(data)), ShardedOptions{})
	}
	err := durable.VerifyReader(buf.Bytes(), func(data []byte) error {
		m, err := open(data)
		if err != nil {
			return err
		}
		defer m.Close()
		_, merr := m.Materialize(context.Background())
		s, err := open(data)
		if err != nil {
			return err
		}
		defer s.Close()
		perr := pinAll(s)
		if (merr == nil) != (perr == nil) {
			return fmt.Errorf("materialize returned %v but pinning every shard returned %v", merr, perr)
		}
		if merr != nil {
			return merr
		}
		return perr
	})
	if err != nil {
		t.Fatal(err)
	}
}

// v1 bytes — whole, truncated anywhere, or with adversarial headers that
// once drove giant allocations — must fail with a typed error, never a
// panic.
func TestLegacyTruncationYieldsTypedErrors(t *testing.T) {
	for cut := 0; cut <= len(v1Graph); cut++ {
		_, err := ReadGraph(bytes.NewReader(v1Graph[:cut]))
		var ce *durable.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("v1 prefix of %d bytes gave %T: %v", cut, err, err)
		}
	}
}

func TestLegacyAdversarialHeaders(t *testing.T) {
	cases := map[string][]byte{
		// nnz = 2^30 declared, no data following.
		"huge-nnz": append([]byte("FGG1"), le32(100, 100, 1<<30)...),
		// numRows = 2^30 declared.
		"huge-rows": append([]byte("FGG1"), le32(1<<30, 10, 5)...),
		// Header fields beyond the plausibility cap.
		"over-cap": append([]byte("FGG1"), le32(1<<31-1, 1, 1)...),
		// rowptr that disagrees with declared nnz.
		"nnz-mismatch": append(append([]byte("FGG1"), le32(1, 1, 4)...), le32(0, 0)...),
		// v1 tensor files: a giant rank, an overflowing dimension product.
		"tensor-rank":     append([]byte("FGT1"), le32(1<<20)...),
		"tensor-overflow": append([]byte("FGT1"), le32(4, 1<<30, 1<<30, 1<<30, 1<<30)...),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ReadGraph(bytes.NewReader(data))
			var ce *durable.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("want *durable.CorruptError, got %T: %v", err, err)
			}
		})
	}
}

func le32(vals ...uint32) []byte {
	out := make([]byte, 0, 4*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint32(out, v)
	}
	return out
}

// New saves must leave no temp debris, and LoadGraph must stamp the path
// onto typed errors.
func TestLoadGraphErrorCarriesPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.fgg")
	// A container prelude with a valid version but garbage after it: the
	// header checksum rejects it.
	bad := append([]byte("FGDC"), 1, 0) // container version 1
	bad = append(bad, []byte("garbage-not-a-container")...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadGraph(path)
	var ce *durable.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want CorruptError, got %T: %v", err, err)
	}
	if ce.Path != path {
		t.Fatalf("error path %q, want %q", ce.Path, path)
	}
}
