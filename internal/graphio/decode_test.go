package graphio

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"featgraph/internal/durable"
	"featgraph/internal/sparse"
)

// refShard is one shard's arrays decoded element by element from the file's
// little-endian bytes — the decoder the bulk copy replaced, kept here as
// the reference it must match bit for bit. val holds float bits.
type refShard struct {
	col, eid []int32
	val      []uint32
}

func referenceDecode(t *testing.T, blob []byte) ([]refShard, []durable.SectionLoc) {
	t.Helper()
	_, locs, err := durable.ReadIndex(bytes.NewReader(blob), "", shardKind, shardVersion)
	if err != nil {
		t.Fatal(err)
	}
	payload := map[string][]byte{}
	for _, l := range locs {
		payload[l.Name] = blob[l.Off : l.Off+l.Len]
	}
	var shards []refShard
	for i := 0; ; i++ {
		col, ok := payload[fmt.Sprintf("s%d.colidx", i)]
		if !ok {
			return shards, locs
		}
		eid, val := payload[fmt.Sprintf("s%d.eid", i)], payload[fmt.Sprintf("s%d.val", i)]
		r := refShard{col: []int32{}, eid: []int32{}, val: []uint32{}}
		for p := 0; p < len(col); p += 4 {
			r.col = append(r.col, int32(binary.LittleEndian.Uint32(col[p:])))
			r.eid = append(r.eid, int32(binary.LittleEndian.Uint32(eid[p:])))
			r.val = append(r.val, binary.LittleEndian.Uint32(val[p:]))
		}
		shards = append(shards, r)
	}
}

func sameBits(t *testing.T, label string, col, eid []int32, val []float32, want refShard) {
	t.Helper()
	if len(col) != len(want.col) || len(eid) != len(want.eid) || len(val) != len(want.val) {
		t.Fatalf("%s: %d/%d/%d edges, want %d", label, len(col), len(eid), len(val), len(want.col))
	}
	for p := range want.col {
		if col[p] != want.col[p] || eid[p] != want.eid[p] || math.Float32bits(val[p]) != want.val[p] {
			t.Fatalf("%s: edge %d = (%d,%d,%#x), want (%d,%d,%#x)", label, p,
				col[p], eid[p], math.Float32bits(val[p]), want.col[p], want.eid[p], want.val[p])
		}
	}
}

// bothSources opens blob through OpenShardedReader and, written to a file,
// through OpenSharded (the mapping, or positioned reads under
// featgraph_nommap).
func bothSources(t *testing.T, blob []byte) map[string]*ShardedCSR {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.fgs")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := OpenSharded(path, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { file.Close() })
	return map[string]*ShardedCSR{"reader": shardedFromBytes(t, blob, ShardedOptions{}), "file": file}
}

// Pin and Materialize must hand out exactly the bits the per-element
// decode would: on empty and one-edge shards, on a row split across
// one-edge shards, with payloads at unaligned file offsets, from both
// byte sources, and for float payloads (NaN bits, -0, subnormals) that a
// decode through float arithmetic would not preserve.
func TestShardDecodeMatchesPerElementReference(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	special := []float32{
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x80000000), // -0
		math.Float32frombits(0x7fc00001), // NaN with a payload
		math.Float32frombits(0xffa00000), // signalling NaN
		math.Float32frombits(1),          // smallest subnormal
	}
	random := sparse.Random(rng, 60, 50, 6)
	for i := range random.Val {
		random.Val[i] = rng.Float32()*2 - 1
	}
	copy(random.Val, special)
	cases := []struct {
		name  string
		g     *sparse.CSR
		edges int
		split bool // some shard boundary must split a row
	}{
		{"zero-edge", &sparse.CSR{NumRows: 4, NumCols: 3, RowPtr: make([]int32, 5)}, 8, false},
		{"one-edge", &sparse.CSR{NumRows: 3, NumCols: 4, RowPtr: []int32{0, 0, 1, 1},
			ColIdx: []int32{3}, EID: []int32{0}, Val: []float32{-2.5}}, 8, false},
		{"one-edge-shards", &sparse.CSR{NumRows: 2, NumCols: 5, RowPtr: []int32{0, 3, 4},
			ColIdx: []int32{4, 0, 2, 1}, EID: []int32{2, 0, 3, 1}, Val: special[2:6]}, 1, true},
		{"random", random, 16, true},
	}
	residues := map[int64]bool{}
	ctx := context.Background()
	for _, tc := range cases {
		blob := writeShardedBytes(t, tc.g, tc.edges)
		want, locs := referenceDecode(t, blob)
		for _, l := range locs {
			if strings.HasPrefix(l.Name, "s") && l.Len > 0 {
				residues[l.Off%4] = true
			}
		}
		for src, s := range bothSources(t, blob) {
			label := tc.name + "/" + src
			if s.NumShards() != len(want) {
				t.Fatalf("%s: %d shards, the file holds %d", label, s.NumShards(), len(want))
			}
			split := false
			all := refShard{col: []int32{}, eid: []int32{}, val: []uint32{}}
			for i, w := range want {
				csr, unpin, err := s.Pin(ctx, i)
				if err != nil {
					t.Fatalf("%s: pin %d: %v", label, i, err)
				}
				sameBits(t, fmt.Sprintf("%s shard %d", label, i), csr.ColIdx, csr.EID, csr.Val, w)
				unpin()
				all.col, all.eid, all.val = append(all.col, w.col...), append(all.eid, w.eid...), append(all.val, w.val...)
				if lo, _ := s.ShardRows(i); i > 0 {
					_, prevHi := s.ShardRows(i - 1)
					split = split || lo < prevHi
				}
			}
			if split != tc.split {
				t.Fatalf("%s: split row = %v, the case wants %v", label, split, tc.split)
			}
			g, err := s.Materialize(ctx)
			if err != nil {
				t.Fatalf("%s: materialize: %v", label, err)
			}
			sameBits(t, label+" materialize", g.ColIdx, g.EID, g.Val, all)
			for r, v := range tc.g.RowPtr {
				if g.RowPtr[r] != v {
					t.Fatalf("%s: rowptr[%d] = %d, want %d", label, r, g.RowPtr[r], v)
				}
			}
		}
	}
	if len(residues) < 2 {
		t.Fatalf("every edge section starts at the same offset mod 4 (%v): the cases exercise no unaligned payload", residues)
	}
}

// pinAll pins and releases every shard in order, returning the first error.
func pinAll(s *ShardedCSR) error {
	for i := 0; i < s.NumShards(); i++ {
		_, unpin, err := s.Pin(context.Background(), i)
		if err != nil {
			return err
		}
		unpin()
	}
	return nil
}

// shardSections returns the index entries of blob's shard sections, in
// file order: s0.colidx, s0.eid, s0.val, s1.colidx, ...
func shardSections(t *testing.T, blob []byte) []durable.SectionLoc {
	t.Helper()
	_, locs, err := durable.ReadIndex(bytes.NewReader(blob), "", shardKind, shardVersion)
	if err != nil {
		t.Fatal(err)
	}
	return locs[2:] // after manifest and rowptr64
}

// failsAlike requires a fresh handle's Pin-all and a fresh handle's
// Materialize to both reject data with a *durable.CorruptError that names
// section and gives a reason containing reason.
func failsAlike(t *testing.T, data []byte, section, reason, label string) {
	t.Helper()
	_, merr := shardedFromBytes(t, data, ShardedOptions{}).Materialize(context.Background())
	for path, err := range map[string]error{"pin": pinAll(shardedFromBytes(t, data, ShardedOptions{})), "materialize": merr} {
		var ce *durable.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: %s returned %T %v, want *durable.CorruptError", label, path, err, err)
		}
		if ce.Section != section || !strings.Contains(ce.Reason, reason) {
			t.Fatalf("%s: %s blames section %q: %q, want %q: %q", label, path, ce.Section, ce.Reason, section, reason)
		}
	}
}

// setWord stores v as payload word 3 of section l and rewrites the
// section's trailing checksum to match, so only the range checks can
// catch it.
func setWord(data []byte, l durable.SectionLoc, v int32) {
	binary.LittleEndian.PutUint32(data[l.Off+4*3:], uint32(v))
	crc := crc32.Checksum(data[l.Off:l.Off+l.Len], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(data[l.Off+l.Len:], crc)
}

// Materialize no longer goes through Pin, so it must fail closed exactly
// like Pin: for a flipped byte in every shard section (the CRC) and for an
// out-of-range column or edge id under a valid CRC (the range checks), a
// fresh handle's Pin-all and Materialize both return a *durable.CorruptError
// naming the damaged section, for the same reason. With several sections
// damaged, both name the first in (shard, section) order, as the serial
// decode did.
func TestShardSectionDamageFailsPinAndMaterializeAlike(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	// 128 KiB sections, so the pool's runners overlap on them.
	g := sparse.Random(rng, 2000, 1500, 64)
	blob := writeShardedBytes(t, g, 1<<15)
	secs := shardSections(t, blob)
	if len(secs) < 3*3 {
		t.Fatalf("%d shard sections; the test wants 3+ shards", len(secs))
	}
	flip := func(data []byte, l durable.SectionLoc) { data[l.Off+l.Len/2] ^= 0x08 }
	for _, l := range secs {
		data := append([]byte{}, blob...)
		flip(data, l)
		failsAlike(t, data, l.Name, "checksum", l.Name+" bit flip")
		var bad []int32
		switch {
		case strings.HasSuffix(l.Name, ".colidx"):
			bad = []int32{int32(g.NumCols), -1}
		case strings.HasSuffix(l.Name, ".eid"):
			bad = []int32{int32(g.NNZ()), -1}
		}
		for _, v := range bad {
			data := append([]byte{}, blob...)
			setWord(data, l, v)
			failsAlike(t, data, l.Name, fmt.Sprintf("edge 3 holds %d", v), fmt.Sprintf("%s word 3 = %d", l.Name, v))
		}
	}
	for k := range secs {
		data := append([]byte{}, blob...)
		for _, l := range secs[k:] {
			flip(data, l)
		}
		failsAlike(t, data, secs[k].Name, "checksum", "sections from "+secs[k].Name+" on flipped")
	}

	// Past 2^31 columns every non-negative int32 is a valid column; a
	// negative one still is not.
	wide := &sparse.CSR{NumRows: 2, NumCols: 1 << 33, RowPtr: []int32{0, 4, 8},
		ColIdx: []int32{0, 1, math.MaxInt32, 7, 2, 3, 4, 5}, EID: []int32{0, 1, 2, 3, 4, 5, 6, 7}, Val: make([]float32, 8)}
	blob = writeShardedBytes(t, wide, 32)
	if err := pinAll(shardedFromBytes(t, blob, ShardedOptions{})); err != nil {
		t.Fatal(err)
	}
	if _, err := shardedFromBytes(t, blob, ShardedOptions{}).Materialize(context.Background()); err != nil {
		t.Fatal(err)
	}
	col := shardSections(t, blob)[0]
	setWord(blob, col, -1)
	failsAlike(t, blob, col.Name, "edge 3 holds -1", "2^33 columns, word 3 = -1")
}

// Pin and Materialize run from several goroutines at once on one handle.
// Close takes the handle's lock, so it cannot unmap the source under a
// running Materialize; Pin and Materialize after Close fail with a typed
// error instead of touching released memory.
func TestShardedConcurrentUseAndClose(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := sparse.Random(rng, 400, 300, 12)
	path := filepath.Join(t.TempDir(), "g.fgs")
	if err := SaveSharded(path, g, 256); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSharded(path, ShardedOptions{BudgetBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	type result struct {
		g   *sparse.CSR
		err error
	}
	results := make([]result, 4)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w%2 == 0 {
				results[w].err = pinAll(s)
				return
			}
			results[w].g, results[w].err = s.Materialize(ctx)
		}()
	}
	wg.Wait()
	for w, r := range results {
		if r.err != nil {
			t.Fatalf("goroutine %d: %v", w, r.err)
		}
		if r.g != nil {
			sameCSR(t, r.g, g, "concurrent materialize")
		}
	}

	done := make(chan result, 1)
	go func() {
		got, err := s.Materialize(ctx)
		done <- result{got, err}
	}()
	s.Close()
	var ce *durable.CorruptError
	if r := <-done; r.err != nil && !errors.As(r.err, &ce) {
		t.Fatalf("materialize racing Close: %T %v", r.err, r.err)
	} else if r.err == nil {
		sameCSR(t, r.g, g, "materialize racing Close")
	}
	if _, err := s.Materialize(ctx); !errors.As(err, &ce) {
		t.Fatalf("materialize after Close: %T %v, want *durable.CorruptError", err, err)
	}
	if _, _, err := s.Pin(ctx, 0); !errors.As(err, &ce) {
		t.Fatalf("pin after Close: %T %v, want *durable.CorruptError", err, err)
	}
}

// countingReaderAt counts ReadAt calls.
type countingReaderAt struct {
	r     io.ReaderAt
	reads atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads.Add(1)
	return c.r.ReadAt(p, off)
}

// Materialize polls its context between sections: cancelled before the
// decode, it reads no section at all.
func TestShardedMaterializeHonoursContext(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	blob := writeShardedBytes(t, sparse.Random(rng, 50, 40, 5), 16)
	r := &countingReaderAt{r: bytes.NewReader(blob)}
	s, err := OpenShardedReader(r, int64(len(blob)), ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opened := r.reads.Load()
	if _, err := s.Materialize(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("materialize under a cancelled context: %v", err)
	}
	if n := r.reads.Load() - opened; n != 0 {
		t.Fatalf("materialize under a cancelled context made %d reads", n)
	}
}

// benchSharded writes a 1 Mi-edge graph in default-size shards to a file
// and opens it under a one-byte budget, so every Pin decodes.
func benchSharded(b *testing.B) *ShardedCSR {
	b.Helper()
	rng := rand.New(rand.NewSource(53))
	g := sparse.Random(rng, 1<<15, 1<<15, 32)
	path := filepath.Join(b.TempDir(), "g.fgs")
	if err := SaveSharded(path, g, 0); err != nil {
		b.Fatal(err)
	}
	s, err := OpenSharded(path, ShardedOptions{BudgetBytes: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	b.SetBytes(12 * s.ShardNNZ(0))
	return s
}

// BenchmarkShardedPin times one cold Pin of a default-size shard.
func BenchmarkShardedPin(b *testing.B) {
	s := benchSharded(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, unpin, err := s.Pin(ctx, i%s.NumShards())
		if err != nil {
			b.Fatal(err)
		}
		unpin()
	}
}

// BenchmarkShardedMaterialize times loading the whole file into one CSR.
func BenchmarkShardedMaterialize(b *testing.B) {
	s := benchSharded(b)
	_, _, nnz := s.Dims()
	b.SetBytes(12 * nnz)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Materialize(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
