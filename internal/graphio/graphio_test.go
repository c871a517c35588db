package graphio

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"featgraph/internal/sparse"
)

// A graph saved with the default shard size, as featgen saves it, loads
// back bit for bit.
func TestGraphRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := sparse.Random(rng, 50, 40, 6)
	for i := range g.Val {
		g.Val[i] = rng.Float32()
	}
	path := filepath.Join(t.TempDir(), "g.fgs")
	if err := SaveSharded(path, g, 0); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, got, g, "round trip")
}

func TestGraphRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := sparse.Random(rng, 1+rng.Intn(30), 1+rng.Intn(30), 1+rng.Intn(4))
		var buf bytes.Buffer
		if err := WriteSharded(&buf, g, rng.Intn(40)); err != nil {
			return false
		}
		s, err := OpenShardedReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()), ShardedOptions{})
		if err != nil {
			return false
		}
		defer s.Close()
		got, err := s.Materialize(context.Background())
		if err != nil {
			return false
		}
		sameCSR(t, got, g, fmt.Sprintf("seed %d", seed))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := sparse.Random(rng, 10, 10, 2)
	var buf bytes.Buffer
	if err := WriteSharded(&buf, g, 0); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := loadBytes(t, bad); err == nil {
		t.Error("bad magic should fail")
	}
	// Truncated.
	if _, err := loadBytes(t, data[:len(data)/2]); err == nil {
		t.Error("truncation should fail")
	}
	// A damaged word in the last section (the values) fails its checksum.
	bad = append([]byte(nil), data...)
	copy(bad[len(bad)-8:], []byte{0xFF, 0xFF, 0xFF, 0x7F})
	if _, err := loadBytes(t, bad); err == nil {
		t.Error("a damaged value should fail its checksum")
	}
	// Another container kind.
	if _, err := loadBytes(t, graphV2Blob(t)); err == nil {
		t.Error("a graph-v2 container should not load")
	}
}

func TestWriteRejectsInvalidGraph(t *testing.T) {
	bad := &sparse.CSR{NumRows: 2, NumCols: 2, RowPtr: []int32{0, 5, 1}}
	path := filepath.Join(t.TempDir(), "g.fgs")
	if err := SaveSharded(path, bad, 0); err == nil {
		t.Fatal("invalid graph should be rejected at write time")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a refused save left a file: %v", err)
	}
}

func TestFileHelpers(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(4))
	g := sparse.Random(rng, 20, 20, 3)
	gp := filepath.Join(dir, "g.fgs")
	if err := SaveSharded(gp, g, 0); err != nil {
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
// files stranded there by a crashed previous process, at the default
// shard size and at a small one.
func TestSaveSweepsStaleTemps(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := sparse.Random(rng, 16, 16, 3)
	cases := map[string]func(dir string) error{
		"graph":   func(dir string) error { return SaveSharded(filepath.Join(dir, "g.fgs"), g, 0) },
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
