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

// section is one named payload of a hand-built container.
type section struct {
	name    string
	payload []byte
}

// containerBlob writes a CRC-valid durable container of the given kind and
// version holding secs, in order.
func containerBlob(t testing.TB, kind string, version uint16, secs ...section) []byte {
	t.Helper()
	var buf bytes.Buffer
	dw, err := durable.NewWriter(&buf, kind, version, len(secs))
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range secs {
		if err := dw.Section(sec.name, sec.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// graphV2Blob is a well-formed container of the unsharded graph kind that
// earlier releases wrote (version 2: a u32 rows/cols/nnz header, then
// rowptr, colidx, eid and val), holding the same 2×2 graph. No reader
// accepts it any more.
func graphV2Blob(t testing.TB) []byte {
	return containerBlob(t, "graph", 2,
		section{"header", le32(2, 2, 1)},
		section{"rowptr", le32(0, 1, 1)},
		section{"colidx", le32(0)},
		section{"eid", le32(0)},
		section{"val", le32(math.Float32bits(1))})
}

// loadBytes writes data to a fresh file and loads it with LoadGraph, the
// loader featgen -info and traingnn -graph use.
func loadBytes(t testing.TB, data []byte) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.fgs")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadGraph(path)
	return path, err
}

// TestLoadGraphRejectsEarlierFormats: a v1 file fails the container's
// magic check and a v2 graph container its kind check, each with a typed
// error naming the file, which is what `traingnn -graph old.fgg` reports.
func TestLoadGraphRejectsEarlierFormats(t *testing.T) {
	for _, tc := range []struct {
		name, reason string
		blob         []byte
	}{
		{"v1", "bad magic", v1Graph},
		{"graph-v2", `container holds "graph"`, graphV2Blob(t)},
	} {
		path, err := loadBytes(t, tc.blob)
		var ce *durable.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: want *durable.CorruptError, got %T: %v", tc.name, err, err)
		}
		if ce.Path != path || ce.Kind != shardKind || !strings.Contains(ce.Reason, tc.reason) {
			t.Fatalf("%s: error %+v, want kind %q, path %q and a reason containing %q", tc.name, ce, shardKind, path, tc.reason)
		}
	}
}

// TestValSectionLengthMismatchReportsShardSection: a container whose
// sections all checksum cleanly but whose val section disagrees with the
// manifest's edge count is damage to that section.
func TestValSectionLengthMismatchReportsShardSection(t *testing.T) {
	blob := containerBlob(t, shardKind, shardVersion,
		section{"manifest", le64(2, 2, 1, 1, 0, 2, 0, 1)}, // one edge in one shard
		section{"rowptr64", le64(0, 1, 1)},
		section{"s0.colidx", le32(0)},
		section{"s0.eid", le32(0)},
		section{"s0.val", le32(math.Float32bits(1), math.Float32bits(2))}) // two values stored
	_, err := loadBytes(t, blob)
	var ce *durable.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *durable.CorruptError, got %T: %v", err, err)
	}
	if ce.Kind != shardKind || ce.Section != "s0.val" {
		t.Fatalf("error kind %q section %q, want %q and %q", ce.Kind, ce.Section, shardKind, "s0.val")
	}
}

// TestSaveGraphSurvivesTornWrite is the regression for the original
// non-atomic graph save: a crash mid-write used to leave a truncated file
// that a later load misparsed. Routed through the atomic writer, a
// torn write fails the save and the previous file still loads bitwise
// intact.
func TestSaveGraphSurvivesTornWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.fgs")
	rng := rand.New(rand.NewSource(9))
	old := sparse.Random(rng, 30, 30, 4)
	if err := SaveSharded(path, old, 0); err != nil {
		t.Fatal(err)
	}
	replacement := sparse.Random(rng, 50, 50, 6)
	defer faultinject.Arm(faultinject.SiteDurableTornWrite, &faultinject.Fault{Kind: faultinject.Err})()
	if err := SaveSharded(path, replacement, 0); err == nil {
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
	path := filepath.Join(t.TempDir(), "g.fgs")
	rng := rand.New(rand.NewSource(11))
	old := sparse.Random(rng, 20, 20, 3)
	if err := SaveSharded(path, old, 0); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Arm(faultinject.SiteDurableFsync, &faultinject.Fault{Kind: faultinject.Err})()
	if err := SaveSharded(path, sparse.Random(rng, 30, 30, 4), 0); err == nil {
		t.Fatal("fsync failure should fail the save")
	}
	got, err := LoadGraph(path)
	if err != nil || got.NumRows != old.NumRows || got.NNZ() != old.NNZ() {
		t.Fatalf("previous graph damaged: %v", err)
	}
}

// TestCorruptionMatrixGraphFormat runs the durability acceptance matrix
// over LoadGraph and a file saved with the default shard size, as featgen
// writes it: truncation at every boundary and a bit flip in every section
// must yield typed errors carrying the path, never panics or silent
// garbage.
func TestCorruptionMatrixGraphFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := sparse.Random(rng, 25, 25, 4)
	var buf bytes.Buffer
	if err := WriteSharded(&buf, g, 0); err != nil {
		t.Fatal(err)
	}
	err := durable.VerifyReader(buf.Bytes(), func(data []byte) error {
		path, err := loadBytes(t, data)
		var ce *durable.CorruptError
		if errors.As(err, &ce) && ce.Path != path {
			return fmt.Errorf("error %v names %q, want %q", err, ce.Path, path)
		}
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
// once drove giant allocations — must fail LoadGraph with a typed error,
// never a panic.
func TestLegacyTruncationYieldsTypedErrors(t *testing.T) {
	for cut := 0; cut <= len(v1Graph); cut++ {
		_, err := loadBytes(t, v1Graph[:cut])
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
			_, err := loadBytes(t, data)
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

func le64(vals ...uint64) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	return out
}

// LoadGraph must stamp the path onto typed errors.
func TestLoadGraphErrorCarriesPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.fgs")
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
