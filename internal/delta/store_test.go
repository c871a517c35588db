package delta

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"featgraph/internal/sparse"
)

// TestSaveBaseBytesPinned pins every byte saveBase writes for a fixed
// graph, so a change to the array codec or the container cannot silently
// change the on-disk deltabase format.
func TestSaveBaseBytesPinned(t *testing.T) {
	c := sparse.Random(rand.New(rand.NewSource(21)), 40, 40, 4)
	for i := range c.Val {
		c.Val[i] = float32(i)*0.375 - 3
	}
	c.Val[0], c.Val[1] = math.Float32frombits(0x7fc00001), float32(math.Copysign(0, -1))
	path := filepath.Join(t.TempDir(), "base.fgd")
	if err := saveBase(path, c, 7); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got, want := hex.EncodeToString(sum[:]), "1267d1a26afa0013a293748517a8915b774d432084b54be065ca04220a797486"; got != want {
		t.Fatalf("deltabase bytes hash to %s, want %s", got, want)
	}
}
