package graphio

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"featgraph/internal/admission"
	"featgraph/internal/durable"
	"featgraph/internal/partition"
	"featgraph/internal/sparse"
)

// shardedFromBytes opens a sharded blob for tests.
func shardedFromBytes(t *testing.T, blob []byte, opts ShardedOptions) *ShardedCSR {
	t.Helper()
	s, err := OpenShardedReader(bytes.NewReader(blob), int64(len(blob)), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func writeShardedBytes(t *testing.T, g *sparse.CSR, targetEdges int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSharded(&buf, g, targetEdges); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameCSR(t *testing.T, got, want *sparse.CSR, label string) {
	t.Helper()
	if got.NumRows != want.NumRows || got.NumCols != want.NumCols || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: dims (%d,%d,%d), want (%d,%d,%d)", label,
			got.NumRows, got.NumCols, got.NNZ(), want.NumRows, want.NumCols, want.NNZ())
	}
	for r := 0; r <= want.NumRows; r++ {
		if got.RowPtr[r] != want.RowPtr[r] {
			t.Fatalf("%s: rowptr[%d] = %d, want %d", label, r, got.RowPtr[r], want.RowPtr[r])
		}
	}
	for p := range want.ColIdx {
		if got.ColIdx[p] != want.ColIdx[p] || got.EID[p] != want.EID[p] || got.Val[p] != want.Val[p] {
			t.Fatalf("%s: edge %d = (%d,%d,%v), want (%d,%d,%v)", label, p,
				got.ColIdx[p], got.EID[p], got.Val[p], want.ColIdx[p], want.EID[p], want.Val[p])
		}
	}
}

// The fundamental shard-format contract: a graph cut into shards small
// enough to split rows reassembles bit-for-bit.
func TestShardedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := sparse.Random(rng, 60, 50, 6)
	for i := range g.Val {
		g.Val[i] = rng.Float32()
	}
	blob := writeShardedBytes(t, g, 16)
	s := shardedFromBytes(t, blob, ShardedOptions{})
	rows, cols, nnz := s.Dims()
	if rows != g.NumRows || cols != g.NumCols || nnz != int64(g.NNZ()) {
		t.Fatalf("dims (%d,%d,%d), want (%d,%d,%d)", rows, cols, nnz, g.NumRows, g.NumCols, g.NNZ())
	}
	if s.NumShards() < 4 {
		t.Fatalf("only %d shards from %d edges at target 16 — test wants split rows", s.NumShards(), g.NNZ())
	}
	got, err := s.Materialize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, got, g, "materialize")
	for r := 0; r < g.NumRows; r++ {
		if s.Degree(r) != int64(g.RowPtr[r+1]-g.RowPtr[r]) {
			t.Fatalf("degree(%d) = %d, want %d", r, s.Degree(r), g.RowPtr[r+1]-g.RowPtr[r])
		}
	}
}

// Each pinned shard must equal the in-memory extraction of the same edge
// range — including the derived local row pointers on rows the shard
// boundary split.
func TestShardedPinMatchesExtractShard(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := sparse.Random(rng, 40, 30, 7)
	blob := writeShardedBytes(t, g, 16)
	s := shardedFromBytes(t, blob, ShardedOptions{})
	shards := partition.EdgeShards(g, 16)
	if len(shards) != s.NumShards() {
		t.Fatalf("loader sees %d shards, planner cut %d", s.NumShards(), len(shards))
	}
	split := false
	for i, spec := range shards {
		lo, hi := s.ShardRows(i)
		if lo != spec.RowLo || hi != spec.RowHi {
			t.Fatalf("shard %d rows [%d,%d), want [%d,%d)", i, lo, hi, spec.RowLo, spec.RowHi)
		}
		if int(s.ShardNNZ(i)) != spec.NNZ() {
			t.Fatalf("shard %d nnz %d, want %d", i, s.ShardNNZ(i), spec.NNZ())
		}
		csr, unpin, err := s.Pin(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		sameCSR(t, csr, partition.ExtractShard(g, spec), "shard")
		unpin()
		if i > 0 && spec.RowLo < shards[i-1].RowHi {
			split = true
		}
	}
	if !split {
		t.Fatal("no shard boundary split a row; pick a seed that exercises the carry")
	}
}

// The residency budget must hold once pins are released, evicting LRU
// shards and reloading them on demand.
func TestShardedBudgetEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := sparse.Random(rng, 50, 40, 8)
	blob := writeShardedBytes(t, g, 32)
	ctx := context.Background()

	// Budget two average shards' decoded bytes: the cache charges a shard 4
	// bytes per local row pointer and 12 per edge (checked on the unlimited
	// handle below).
	full := shardedFromBytes(t, blob, ShardedOptions{})
	var decoded int64
	for i := 0; i < full.NumShards(); i++ {
		lo, hi := full.ShardRows(i)
		decoded += 4*int64(hi-lo+1) + 12*full.ShardNNZ(i)
	}
	budget := decoded / int64(full.NumShards()) * 2

	s := shardedFromBytes(t, blob, ShardedOptions{BudgetBytes: budget})
	for round := 0; round < 2; round++ {
		for i := 0; i < s.NumShards(); i++ {
			_, unpin, err := s.Pin(ctx, i)
			if err != nil {
				t.Fatal(err)
			}
			unpin()
			if rb := s.ResidentBytes(); rb > budget {
				t.Fatalf("resident %d bytes exceeds budget %d after unpin", rb, budget)
			}
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions under a two-shard budget")
	}
	if st.Loads <= uint64(s.NumShards()) {
		t.Fatalf("%d loads over two rounds — evicted shards were not reloaded", st.Loads)
	}
	if st.PeakBytes > budget {
		// One unpinned shard at a time: the peak may not exceed the budget.
		t.Fatalf("peak resident %d exceeds budget %d", st.PeakBytes, budget)
	}

	// Unlimited: the second round is all hits.
	u := shardedFromBytes(t, blob, ShardedOptions{})
	for round := 0; round < 2; round++ {
		for i := 0; i < u.NumShards(); i++ {
			_, unpin, err := u.Pin(ctx, i)
			if err != nil {
				t.Fatal(err)
			}
			unpin()
		}
	}
	if st := u.Stats(); st.Loads != uint64(u.NumShards()) || st.Hits != uint64(u.NumShards()) {
		t.Fatalf("unlimited budget: %d loads, %d hits; want %d of each", st.Loads, st.Hits, u.NumShards())
	}
	if rb := u.ResidentBytes(); rb != decoded {
		t.Fatalf("every shard resident holds %d bytes, the budget above assumed %d", rb, decoded)
	}
	// Materialize bypasses the cache: no traffic, no residency.
	if _, err := full.Materialize(ctx); err != nil {
		t.Fatal(err)
	}
	if st, rb := full.Stats(), full.ResidentBytes(); st != (ShardCacheStats{}) || rb != 0 {
		t.Fatalf("Materialize went through the cache: %+v, %d bytes resident", st, rb)
	}
}

// A pinned shard must survive any budget pressure; release is idempotent.
func TestShardedPinBlocksEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	g := sparse.Random(rng, 40, 30, 8)
	blob := writeShardedBytes(t, g, 32)
	s := shardedFromBytes(t, blob, ShardedOptions{BudgetBytes: 1}) // everything is over budget
	if s.NumShards() < 2 {
		t.Fatalf("need 2+ shards, got %d", s.NumShards())
	}
	ctx := context.Background()
	csr0, unpin0, err := s.Pin(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, unpin1, err := s.Pin(ctx, 1); err != nil {
		t.Fatal(err)
	} else {
		unpin1() // shard 1 unpinned: evictable; shard 0 must not be
	}
	csr0again, unpin0b, err := s.Pin(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if csr0again != csr0 {
		t.Fatal("pinned shard was evicted and re-materialized under budget pressure")
	}
	unpin0b()
	unpin0()
	unpin0() // idempotent
	if _, _, err := s.Pin(ctx, 0); err != nil {
		t.Fatal(err)
	}
}

// Resident shard bytes must ride the admission governor's memory ledger
// and return to it on eviction and Close.
func TestShardedChargesAdmissionLedger(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	g := sparse.Random(rng, 30, 30, 6)
	blob := writeShardedBytes(t, g, 32)
	gov := admission.NewGovernor(admission.Config{})
	s, err := OpenShardedReader(bytes.NewReader(blob), int64(len(blob)), ShardedOptions{Governor: gov})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < s.NumShards(); i++ {
		_, unpin, err := s.Pin(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		unpin()
	}
	if gov.MemReserved() != s.ResidentBytes() || gov.MemReserved() == 0 {
		t.Fatalf("governor ledger %d, resident %d", gov.MemReserved(), s.ResidentBytes())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if gov.MemReserved() != 0 {
		t.Fatalf("ledger holds %d bytes after Close", gov.MemReserved())
	}
}

// Zero-edge graphs are a degenerate but legal shard file: one empty shard
// covering every row.
func TestShardedZeroEdges(t *testing.T) {
	g := &sparse.CSR{NumRows: 9, NumCols: 5, RowPtr: make([]int32, 10)}
	blob := writeShardedBytes(t, g, 64)
	s := shardedFromBytes(t, blob, ShardedOptions{})
	if s.NumShards() != 1 || s.ShardNNZ(0) != 0 {
		t.Fatalf("want one empty shard, got %d shards", s.NumShards())
	}
	csr, unpin, err := s.Pin(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if csr.NumRows != 9 || csr.NNZ() != 0 {
		t.Fatalf("empty shard is %d rows, %d edges", csr.NumRows, csr.NNZ())
	}
	unpin()
	got, err := s.Materialize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, got, g, "materialize")
}

// OpenSharded over a real file exercises the mmap byte source on platforms
// that have it (and the pread fallback elsewhere — same assertions).
func TestShardedFromFile(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	g := sparse.Random(rng, 45, 35, 6)
	path := filepath.Join(t.TempDir(), "g.fgs")
	if err := SaveSharded(path, g, 24); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSharded(path, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.Materialize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, got, g, "file materialize")
}

// LoadAnyGraph must accept every on-disk generation, sharded included.
func TestLoadAnyGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := sparse.Random(rng, 30, 25, 5)
	dir := t.TempDir()

	plain := filepath.Join(dir, "plain.fgg")
	if err := SaveGraph(plain, g); err != nil {
		t.Fatal(err)
	}
	sharded := filepath.Join(dir, "sharded.fgs")
	if err := SaveSharded(sharded, g, 16); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{plain, sharded} {
		got, err := LoadAnyGraph(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		sameCSR(t, got, g, path)
	}
}

// A container of the wrong kind must fail with a typed error, not parse.
func TestOpenShardedRejectsGraphContainer(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	g := sparse.Random(rng, 10, 10, 3)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	_, err := OpenShardedReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()), ShardedOptions{})
	var ce *durable.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want CorruptError, got %T: %v", err, err)
	}
}

// Materializing a graph whose manifest-declared columns are beyond the
// in-memory format limit must fail with a LimitError, not build a bogus
// CSR. (Cheap to fake: zero edges, huge nnz declared impossible — use
// nnz path via a crafted manifest is covered by fuzz; here the writer
// refuses first.)
func TestWriteShardedValidates(t *testing.T) {
	bad := &sparse.CSR{NumRows: 2, NumCols: 2, RowPtr: []int32{0, 1, 1}} // nnz 1, no arrays
	var buf bytes.Buffer
	if err := WriteSharded(&buf, bad, 8); err == nil {
		t.Fatal("invalid graph accepted by WriteSharded")
	}
}
