package graphio

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"featgraph/internal/sparse"
)

func TestGraphRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := sparse.Random(rng, 50, 40, 6)
	for i := range g.Val {
		g.Val[i] = rng.Float32()
	}
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows != g.NumRows || got.NumCols != g.NumCols || got.NNZ() != g.NNZ() {
		t.Fatal("dimensions changed")
	}
	for i := range g.ColIdx {
		if got.ColIdx[i] != g.ColIdx[i] || got.EID[i] != g.EID[i] || got.Val[i] != g.Val[i] {
			t.Fatalf("entry %d changed", i)
		}
	}
}

func TestGraphRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := sparse.Random(rng, 1+rng.Intn(30), 1+rng.Intn(30), 1+rng.Intn(4))
		var buf bytes.Buffer
		if err := WriteGraph(&buf, g); err != nil {
			return false
		}
		got, err := ReadGraph(&buf)
		if err != nil {
			return false
		}
		return got.NNZ() == g.NNZ() && got.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := sparse.Random(rng, 10, 10, 2)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := ReadGraph(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic should fail")
	}
	// Truncated.
	if _, err := ReadGraph(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncation should fail")
	}
	// A damaged byte inside the sections fails a checksum.
	off := 4 + 3*4 + (g.NumRows+1)*4
	bad = append([]byte(nil), data...)
	bad[off] = 0xFF
	bad[off+1] = 0xFF
	bad[off+2] = 0xFF
	bad[off+3] = 0x7F
	if _, err := ReadGraph(bytes.NewReader(bad)); err == nil {
		t.Error("corrupt column index should fail validation")
	}
	// Another container kind.
	var sbuf bytes.Buffer
	if err := WriteSharded(&sbuf, g, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadGraph(bytes.NewReader(sbuf.Bytes())); err == nil {
		t.Error("sharded bytes should not parse as graph")
	}
}

func TestWriteRejectsInvalidGraph(t *testing.T) {
	bad := &sparse.CSR{NumRows: 2, NumCols: 2, RowPtr: []int32{0, 5, 1}}
	var buf bytes.Buffer
	if err := WriteGraph(&buf, bad); err == nil {
		t.Fatal("invalid graph should be rejected at write time")
	}
}

func TestFileHelpers(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(4))
	g := sparse.Random(rng, 20, 20, 3)
	gp := filepath.Join(dir, "g.fgg")
	if err := SaveGraph(gp, g); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGraph(gp)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != g.NNZ() {
		t.Fatal("file round trip changed graph")
	}

	if _, err := LoadGraph(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file should error")
	}
}

// TestSaveSweepsStaleTemps: the first save into a directory collects temp
// files stranded there by a crashed previous process, for every save
// entry point.
func TestSaveSweepsStaleTemps(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := sparse.Random(rng, 16, 16, 3)
	cases := map[string]func(dir string) error{
		"graph":   func(dir string) error { return SaveGraph(filepath.Join(dir, "g.fgg"), g) },
		"sharded": func(dir string) error { return SaveSharded(filepath.Join(dir, "g.fgs"), g, 16) },
	}
	for name, save := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			stale := filepath.Join(dir, ".fgtmp-crashed-123")
			if err := os.WriteFile(stale, []byte("orphan"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := save(dir); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(stale); !os.IsNotExist(err) {
				t.Fatalf("stale temp survived the first save: %v", err)
			}
		})
	}
}
