package graphio

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"featgraph/internal/durable"
	"featgraph/internal/faultinject"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// writeLegacyGraph reproduces the v1 on-disk layout byte-for-byte, so the
// legacy-read path stays pinned even though the writer moved on.
func writeLegacyGraph(w io.Writer, g *sparse.CSR) error {
	if _, err := w.Write([]byte("FGG1")); err != nil {
		return err
	}
	hdr := []uint32{uint32(g.NumRows), uint32(g.NumCols), uint32(g.NNZ())}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	for _, arr := range [][]int32{g.RowPtr, g.ColIdx, g.EID} {
		if err := binary.Write(w, binary.LittleEndian, arr); err != nil {
			return err
		}
	}
	return binary.Write(w, binary.LittleEndian, g.Val)
}

func writeLegacyTensor(w io.Writer, t *tensor.Tensor) error {
	if _, err := w.Write([]byte("FGT1")); err != nil {
		return err
	}
	shape := t.Shape()
	if err := binary.Write(w, binary.LittleEndian, uint32(len(shape))); err != nil {
		return err
	}
	for _, d := range shape {
		if err := binary.Write(w, binary.LittleEndian, uint32(d)); err != nil {
			return err
		}
	}
	return binary.Write(w, binary.LittleEndian, t.Data())
}

func TestLegacyGraphStillLoads(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := sparse.Random(rng, 40, 30, 5)
	for i := range g.Val {
		g.Val[i] = rng.Float32()
	}
	var buf bytes.Buffer
	if err := writeLegacyGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGraph(&buf)
	if err != nil {
		t.Fatalf("legacy graph failed to load: %v", err)
	}
	if got.NNZ() != g.NNZ() || got.NumRows != g.NumRows {
		t.Fatal("legacy graph changed in load")
	}
	for i := range g.ColIdx {
		if got.ColIdx[i] != g.ColIdx[i] || got.Val[i] != g.Val[i] {
			t.Fatalf("legacy entry %d changed", i)
		}
	}
}

func TestLegacyTensorStillLoads(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := tensor.New(6, 4)
	x.FillUniform(rng, -1, 1)
	var buf bytes.Buffer
	if err := writeLegacyTensor(&buf, x); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTensor(&buf)
	if err != nil {
		t.Fatalf("legacy tensor failed to load: %v", err)
	}
	if !got.AllClose(x, 0) {
		t.Fatal("legacy tensor changed in load")
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

func TestSaveTensorSurvivesFsyncFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.fgt")
	x := tensor.New(3, 3)
	x.Fill(1.5)
	if err := SaveTensor(path, x); err != nil {
		t.Fatal(err)
	}
	y := tensor.New(3, 3)
	y.Fill(-2)
	defer faultinject.Arm(faultinject.SiteDurableFsync, &faultinject.Fault{Kind: faultinject.Err})()
	if err := SaveTensor(path, y); err == nil {
		t.Fatal("fsync failure should fail the save")
	}
	got, err := LoadTensor(path)
	if err != nil || !got.AllClose(x, 0) {
		t.Fatalf("previous tensor damaged: %v", err)
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

func TestCorruptionMatrixTensorFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := tensor.New(9, 5)
	x.FillUniform(rng, -2, 2)
	var buf bytes.Buffer
	if err := WriteTensor(&buf, x); err != nil {
		t.Fatal(err)
	}
	err := durable.VerifyReader(buf.Bytes(), func(data []byte) error {
		_, err := ReadTensor(bytes.NewReader(data))
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

// Legacy files carry no checksums, so bit flips in payload data are
// undetectable by construction — but truncation anywhere must still
// produce a typed error, and no input may panic the reader.
func TestLegacyTruncationYieldsTypedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := sparse.Random(rng, 15, 15, 3)
	var buf bytes.Buffer
	if err := writeLegacyGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut += max(len(data)/37, 1) {
		_, err := ReadGraph(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d silently accepted", cut)
		}
		var ce *durable.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("truncation at %d gave untyped error %T: %v", cut, err, err)
		}
	}
}

// Adversarial legacy headers: huge declared sizes must fail with a typed
// error quickly, without attempting giant allocations.
func TestLegacyAdversarialHeaders(t *testing.T) {
	cases := map[string][]byte{
		// nnz = 2^30 declared, no data following.
		"huge-nnz": append([]byte("FGG1"), le32(100, 100, 1<<30)...),
		// numRows = 2^30 declared.
		"huge-rows": append([]byte("FGG1"), le32(1<<30, 10, 5)...),
		// Header fields beyond the plausibility cap.
		"over-cap": append([]byte("FGG1"), le32(1<<31-1, 1, 1)...),
		// rowptr that disagrees with declared nnz (rowptr says 0 edges,
		// header says 4): must fail before allocating edge arrays.
		"nnz-mismatch": append(append([]byte("FGG1"), le32(1, 1, 4)...), le32(0, 0)...),
		// Tensor with a giant rank.
		"tensor-rank": append([]byte("FGT1"), le32(1<<20)...),
		// Tensor whose dimension product overflows.
		"tensor-overflow": append([]byte("FGT1"), le32(4, 1<<30, 1<<30, 1<<30, 1<<30)...),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			var err error
			if bytes.HasPrefix(data, []byte("FGT")) {
				_, err = ReadTensor(bytes.NewReader(data))
			} else {
				_, err = ReadGraph(bytes.NewReader(data))
			}
			if err == nil {
				t.Fatal("adversarial header accepted")
			}
			var ce *durable.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("untyped error %T: %v", err, err)
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
