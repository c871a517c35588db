// The graph file format: contiguous destination-row shards that kernels
// stream through a bounded resident budget when the graph is too large to
// hold as one in-memory CSR (ROADMAP item 2; NGra's chunk-at-a-time
// discipline applied to FeatGraph's partitioned kernels), and that
// Materialize assembles into one CSR when it is not.
//
// Format (kind "gshard", version 1, durable container):
//
//	manifest  — u64 LE: numRows, numCols, nnz, shardCount,
//	            then per shard: rowLo, rowHi, edgeLo, edgeHi
//	rowptr64  — (numRows+1) u64 LE global row pointers (kept resident:
//	            it is the carry that lets split rows merge — local shard
//	            row pointers derive from it, and mean finalization divides
//	            by the global degree it encodes)
//	s<i>.colidx / s<i>.eid / s<i>.val
//	          — shard i's edge arrays (i32/i32/f32 LE), each its own CRC'd
//	            section so damage is detected at the shard that loads it
//
// All counts are u64, so no header field can overflow, while per-shard
// edge counts stay below 2^30 so the materialized arrays remain
// int32-indexed like every in-memory CSR.
package graphio

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"unsafe"

	"featgraph/internal/admission"
	"featgraph/internal/durable"
	"featgraph/internal/partition"
	"featgraph/internal/sparse"
	"featgraph/internal/vec"
	"featgraph/internal/workpool"
)

const (
	shardKind    = "gshard"
	shardVersion = 1
	// maxShardEdges bounds one shard's edge count: materialized shard
	// arrays are int32-indexed like every in-memory CSR.
	maxShardEdges = maxDim
	// maxShardRows bounds declared row/column counts (2^40: 8 TiB of
	// resident rowptr64 — anything larger is treated as corruption).
	maxShardRows = 1 << 40
)

// DefaultShardEdges is the writer's default shard granularity (~3 MiB of
// edge payload per shard: small enough that a few shards fit modest
// budgets, large enough that per-shard kernel dispatch is noise).
const DefaultShardEdges = 1 << 18

// WriteSharded serializes g in the sharded out-of-core format, cut into
// contiguous edge-range shards of at most targetShardEdges edges
// (DefaultShardEdges when <= 0).
func WriteSharded(w io.Writer, g *sparse.CSR, targetShardEdges int) error {
	if err := g.Validate(); err != nil {
		return fmt.Errorf("graphio: refusing to write invalid graph: %w", err)
	}
	if targetShardEdges <= 0 {
		targetShardEdges = DefaultShardEdges
	}
	targetShardEdges = min(targetShardEdges, maxShardEdges)
	return writeShards(w, g, partition.EdgeShards(g, targetShardEdges))
}

// writeShards serializes g cut into the given shards, as declared: the
// manifest records each span verbatim.
func writeShards(w io.Writer, g *sparse.CSR, shards []partition.EdgeShard) error {
	bw := bufio.NewWriter(w)
	dw, err := durable.NewWriter(bw, shardKind, shardVersion, 2+3*len(shards))
	if err != nil {
		return err
	}
	manifest := make([]byte, 0, 8*(4+4*len(shards)))
	for _, v := range []int{g.NumRows, g.NumCols, g.NNZ(), len(shards)} {
		manifest = binary.LittleEndian.AppendUint64(manifest, uint64(v))
	}
	for _, s := range shards {
		for _, v := range []int{s.RowLo, s.RowHi, s.EdgeLo, s.EdgeHi} {
			manifest = binary.LittleEndian.AppendUint64(manifest, uint64(v))
		}
	}
	if err := dw.Section("manifest", manifest); err != nil {
		return err
	}
	if err := dw.Stream("rowptr64", 8*int64(len(g.RowPtr)), func(w io.Writer) error {
		buf := make([]byte, 0, min(8*len(g.RowPtr), 1<<16))
		for _, v := range g.RowPtr {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			if len(buf) == cap(buf) {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
		if len(buf) > 0 {
			_, err := w.Write(buf)
			return err
		}
		return nil
	}); err != nil {
		return err
	}
	for i, s := range shards {
		nnz := int64(s.NNZ())
		if err := dw.Stream(fmt.Sprintf("s%d.colidx", i), 4*nnz, durable.StreamInt32s(g.ColIdx[s.EdgeLo:s.EdgeHi])); err != nil {
			return err
		}
		if err := dw.Stream(fmt.Sprintf("s%d.eid", i), 4*nnz, durable.StreamInt32s(g.EID[s.EdgeLo:s.EdgeHi])); err != nil {
			return err
		}
		if err := dw.Stream(fmt.Sprintf("s%d.val", i), 4*nnz, durable.StreamFloat32s(g.Val[s.EdgeLo:s.EdgeHi])); err != nil {
			return err
		}
	}
	if err := dw.Close(); err != nil {
		return err
	}
	return bw.Flush()
}

// SaveSharded durably writes g to path in the sharded format (atomic
// temp + fsync + rename, like every durable file in the repository).
func SaveSharded(path string, g *sparse.CSR, targetShardEdges int) error {
	durable.SweepTempsOnce(filepath.Dir(path))
	return durable.AtomicWriteFile(path, func(w io.Writer) error {
		return WriteSharded(w, g, targetShardEdges)
	})
}

// ShardedOptions configures an out-of-core ShardedCSR handle.
type ShardedOptions struct {
	// BudgetBytes caps the decoded bytes of shards kept resident; shards
	// past the budget are evicted least-recently-used. <= 0 means
	// unlimited. Pinned shards are never evicted, so the instantaneous
	// residency can exceed the budget by the pinned working set (one shard
	// under the sequential executor).
	BudgetBytes int64
	// Governor, when non-nil, has resident shard bytes charged against its
	// memory ledger (admission.Governor.ReserveMemory), so kernel
	// admission sees the cache's headroom consumption. nil charges the
	// process default governor.
	Governor *admission.Governor
}

// ShardCacheStats counts a ShardedCSR's residency traffic.
type ShardCacheStats struct {
	Loads     uint64 // shard materializations (cache misses)
	Hits      uint64 // pins served from resident shards
	Evictions uint64 // shards dropped by the budget
	PeakBytes int64  // high-water resident decoded bytes
}

// shardMeta is one shard's manifest entry plus its section locations.
type shardMeta struct {
	rowLo, rowHi   int
	edgeLo, edgeHi int64
	col, eid, val  durable.SectionLoc
}

// residentShard is one materialized shard in the residency cache, or the
// cache's spare: the arrays of the shard it last evicted, kept for the next
// load to reuse.
type residentShard struct {
	csr     *sparse.CSR
	bytes   int64 // the capacity of csr's arrays, which tk charges
	pins    int
	lastUse uint64
	tk      admission.MemTicket
}

// ShardedCSR is an out-of-core CSR: topology on disk (or in a read-only
// mapping), with at most a budgeted number of decoded shard bytes
// resident. It implements core.ShardSource structurally, so sharded
// kernels stream it directly. Methods are safe for concurrent use; shard
// materialization performs IO under the handle's lock, serializing
// concurrent cold pins (the executor is shard-sequential, so this is
// the deliberate simple choice, not a bottleneck).
type ShardedCSR struct {
	src  byteSource
	path string
	opts ShardedOptions
	gov  *admission.Governor

	numRows, numCols int
	nnz              int64
	rowptr64         []int64 // resident global row pointers, len numRows+1
	shards           []shardMeta

	mu       sync.Mutex
	resident map[int]*residentShard
	spare    *residentShard // the arrays of the shard last evicted, or nil
	used     int64          // resident bytes, the spare's not included
	tick     uint64
	stats    ShardCacheStats
}

// OpenSharded opens a sharded graph file, validating the header, manifest,
// and global row pointers (their CRCs and structure). Shard payloads are
// validated lazily when pinned. On Linux/Darwin the file is mmap'd unless
// built with -tags featgraph_nommap.
func OpenSharded(path string, opts ShardedOptions) (*ShardedCSR, error) {
	src, err := openByteSource(path)
	if err != nil {
		return nil, err
	}
	s, err := openSharded(src, path, opts)
	if err != nil {
		src.Close()
		return nil, err
	}
	return s, nil
}

// OpenShardedReader opens a sharded graph from any io.ReaderAt (tests and
// the corruption/fuzz harnesses feed bytes.Reader). The caller retains
// ownership of r; Close does not close it.
func OpenShardedReader(r io.ReaderAt, size int64, opts ShardedOptions) (*ShardedCSR, error) {
	return openSharded(&readerAtSource{r: r, size: size}, "", opts)
}

func openSharded(src byteSource, path string, opts ShardedOptions) (*ShardedCSR, error) {
	_, locs, err := durable.ReadIndex(io.NewSectionReader(src, 0, src.Size()), path, shardKind, shardVersion)
	if err != nil {
		return nil, err
	}
	secs := make(map[string]durable.SectionLoc, len(locs))
	for _, l := range locs {
		if _, dup := secs[l.Name]; dup {
			return nil, shardCorrupt(path, l.Name, "duplicate section", nil)
		}
		secs[l.Name] = l
	}
	readSection := func(name string) ([]byte, error) {
		l, ok := secs[name]
		if !ok {
			return nil, shardCorrupt(path, name, "section missing", nil)
		}
		b := make([]byte, l.Len)
		if n, err := src.ReadAt(b, l.Off); n < len(b) {
			return nil, shardCorrupt(path, name, "payload read failed", err)
		}
		if err := l.VerifyPayload(b, path, shardKind); err != nil {
			return nil, err
		}
		return b, nil
	}

	man, err := readSection("manifest")
	if err != nil {
		return nil, err
	}
	if len(man) < 32 || len(man)%8 != 0 {
		return nil, shardCorrupt(path, "manifest", fmt.Sprintf("manifest is %d bytes", len(man)), nil)
	}
	u64 := func(i int) uint64 { return binary.LittleEndian.Uint64(man[8*i:]) }
	numRows, numCols, nnz, nshards := u64(0), u64(1), u64(2), u64(3)
	if numRows > maxShardRows || numCols > maxShardRows || nshards > uint64(len(locs)) {
		return nil, shardCorrupt(path, "manifest", fmt.Sprintf("implausible counts rows=%d cols=%d shards=%d", numRows, numCols, nshards), nil)
	}
	if nnz > math.MaxInt64/8 {
		return nil, shardCorrupt(path, "manifest", fmt.Sprintf("implausible edge count %d", nnz), nil)
	}
	if uint64(len(man)) != 8*(4+4*nshards) {
		return nil, shardCorrupt(path, "manifest", fmt.Sprintf("manifest is %d bytes, want %d for %d shards", len(man), 8*(4+4*nshards), nshards), nil)
	}

	s := &ShardedCSR{
		src: src, path: path, opts: opts,
		gov:     admission.Resolve(opts.Governor),
		numRows: int(numRows), numCols: int(numCols), nnz: int64(nnz),
		resident: make(map[int]*residentShard),
	}

	rp, err := readSection("rowptr64")
	if err != nil {
		return nil, err
	}
	if int64(len(rp)) != 8*(int64(numRows)+1) {
		return nil, shardCorrupt(path, "rowptr64", fmt.Sprintf("rowptr64 is %d bytes, want %d", len(rp), 8*(int64(numRows)+1)), nil)
	}
	s.rowptr64 = make([]int64, numRows+1)
	for i := range s.rowptr64 {
		v := binary.LittleEndian.Uint64(rp[8*i:])
		if v > nnz {
			return nil, shardCorrupt(path, "rowptr64", fmt.Sprintf("rowptr[%d]=%d exceeds nnz %d", i, v, nnz), nil)
		}
		s.rowptr64[i] = int64(v)
		if i > 0 && s.rowptr64[i] < s.rowptr64[i-1] {
			return nil, shardCorrupt(path, "rowptr64", fmt.Sprintf("not monotone at row %d", i-1), nil)
		}
	}
	if s.rowptr64[0] != 0 || s.rowptr64[numRows] != int64(nnz) {
		return nil, shardCorrupt(path, "rowptr64", fmt.Sprintf("rowptr spans [%d, %d], manifest declares %d edges", s.rowptr64[0], s.rowptr64[numRows], nnz), nil)
	}

	s.shards = make([]shardMeta, nshards)
	prevEdge := int64(0)
	for i := range s.shards {
		m := &s.shards[i]
		rowLo, rowHi := u64(4+4*i), u64(4+4*i+1)
		edgeLo, edgeHi := u64(4+4*i+2), u64(4+4*i+3)
		if rowLo > rowHi || rowHi > numRows || edgeLo > edgeHi || edgeHi > nnz {
			return nil, shardCorrupt(path, "manifest", fmt.Sprintf("shard %d spans rows [%d,%d) edges [%d,%d) outside the graph", i, rowLo, rowHi, edgeLo, edgeHi), nil)
		}
		m.rowLo, m.rowHi = int(rowLo), int(rowHi)
		m.edgeLo, m.edgeHi = int64(edgeLo), int64(edgeHi)
		snnz := m.edgeHi - m.edgeLo
		if snnz > maxShardEdges {
			return nil, shardCorrupt(path, "manifest", fmt.Sprintf("shard %d holds %d edges, limit %d", i, snnz, maxShardEdges), nil)
		}
		if m.edgeLo != prevEdge {
			return nil, shardCorrupt(path, "manifest", fmt.Sprintf("shard %d starts at edge %d, previous ended at %d", i, m.edgeLo, prevEdge), nil)
		}
		prevEdge = m.edgeHi
		// A shard's rows hold exactly its edges' rows: its first row holds its
		// first edge, and its last row ends at or past its last edge. Then
		// every edge lies in a row of its own shard, and the local row
		// pointers Pin derives run from 0 to the shard's edge count.
		if snnz > 0 && (m.rowLo >= m.rowHi || s.rowptr64[m.rowLo] > m.edgeLo || s.rowptr64[m.rowLo+1] <= m.edgeLo || s.rowptr64[m.rowHi] < m.edgeHi) {
			return nil, shardCorrupt(path, "manifest", fmt.Sprintf("shard %d row span disagrees with rowptr64", i), nil)
		}
		for _, sec := range []struct {
			name string
			dst  *durable.SectionLoc
		}{
			{fmt.Sprintf("s%d.colidx", i), &m.col},
			{fmt.Sprintf("s%d.eid", i), &m.eid},
			{fmt.Sprintf("s%d.val", i), &m.val},
		} {
			l, ok := secs[sec.name]
			if !ok {
				return nil, shardCorrupt(path, sec.name, "section missing", nil)
			}
			if l.Len != 4*snnz {
				return nil, shardCorrupt(path, sec.name, fmt.Sprintf("section is %d bytes, shard declares %d edges", l.Len, snnz), nil)
			}
			*sec.dst = l
		}
	}
	if nshards > 0 && prevEdge != int64(nnz) {
		return nil, shardCorrupt(path, "manifest", fmt.Sprintf("shards end at edge %d, graph has %d", prevEdge, nnz), nil)
	}
	if nshards == 0 && nnz > 0 {
		return nil, shardCorrupt(path, "manifest", "edges but no shards", nil)
	}
	return s, nil
}

// Dims returns the global graph dimensions.
func (s *ShardedCSR) Dims() (numRows, numCols int, nnz int64) {
	return s.numRows, s.numCols, s.nnz
}

// NumShards returns the shard count.
func (s *ShardedCSR) NumShards() int { return len(s.shards) }

// ShardRows returns shard i's destination-row span [rowLo, rowHi).
func (s *ShardedCSR) ShardRows(i int) (rowLo, rowHi int) {
	return s.shards[i].rowLo, s.shards[i].rowHi
}

// ShardNNZ returns shard i's edge count.
func (s *ShardedCSR) ShardNNZ(i int) int64 { return s.shards[i].edgeHi - s.shards[i].edgeLo }

// Degree returns global destination row r's in-degree — the carry that
// finalizes mean aggregation across shard boundaries.
func (s *ShardedCSR) Degree(r int) int64 { return s.rowptr64[r+1] - s.rowptr64[r] }

// ResidentBytes returns the bytes currently held by the residency cache's
// resident shards. The spare set of evicted arrays kept for reuse (at most
// one shard's) is not included; the governor ledger and
// ShardCacheStats.PeakBytes count it.
func (s *ShardedCSR) ResidentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Stats returns a snapshot of the residency cache counters.
func (s *ShardedCSR) Stats() ShardCacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Pin returns shard i as a local-row CSR (row 0 is global row rowLo;
// columns and edge ids are global), materializing it from the byte source
// if not resident, and a release function the caller must invoke when the
// shard is no longer in use. The CSR passes sparse.CSR.Validate: open
// checked the shard's row span against the global row pointers, and the
// load range-checks every column and edge id. A pinned shard is never
// evicted; release is idempotent. Once released, the CSR may be evicted
// and its arrays reused for another shard, so the caller must not read it
// after release. Damage in the shard's sections yields a typed
// *durable.CorruptError.
func (s *ShardedCSR) Pin(ctx context.Context, i int) (*sparse.CSR, func(), error) {
	if i < 0 || i >= len(s.shards) {
		return nil, nil, fmt.Errorf("graphio: shard %d out of range [0, %d)", i, len(s.shards))
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rs := s.resident[i]
	if rs == nil {
		// Make room first, so the load reuses the arrays it evicts.
		m := &s.shards[i]
		s.evictLocked(4*int64(m.rowHi-m.rowLo+1) + 12*(m.edgeHi-m.edgeLo))
		var err error
		if rs, err = s.load(ctx, i); err != nil {
			return nil, nil, err
		}
		s.resident[i] = rs
		s.used += rs.bytes
		s.stats.Loads++
	} else {
		s.stats.Hits++
	}
	s.tick++
	rs.lastUse = s.tick
	rs.pins++
	s.evictLocked(0)
	held := s.used
	if s.spare != nil {
		held += s.spare.bytes
	}
	s.stats.PeakBytes = max(s.stats.PeakBytes, held)

	released := false
	unpin := func() {
		s.mu.Lock()
		if !released {
			released = true
			rs.pins--
			s.evictLocked(0)
		}
		s.mu.Unlock()
	}
	return rs.csr, unpin, nil
}

// load decodes shard i into the spare's arrays, resliced, and into fresh
// ones where the spare has none or too small. Local row pointers derive
// from the resident global rowptr64 clamped to the shard's edge span — the
// shard file stores no per-shard row pointers at all. The spare's
// admission ticket moves to the loaded shard, re-reserved only when the
// arrays' capacity changed; a failed load drops the arrays and releases
// the ticket (a load on a closed handle fails, and must leave nothing
// charged).
func (s *ShardedCSR) load(ctx context.Context, i int) (*residentShard, error) {
	m := &s.shards[i]
	rows := m.rowHi - m.rowLo
	snnz := int(m.edgeHi - m.edgeLo)
	sp := residentShard{csr: &sparse.CSR{}}
	if s.spare != nil {
		sp, s.spare = *s.spare, nil
	}
	// A new CSR each load, even over reused arrays: a shard planner keyed on
	// the CSR pointer must never match a kernel built over another shard.
	csr := &sparse.CSR{
		NumRows: rows,
		NumCols: s.numCols,
		RowPtr:  reuse(sp.csr.RowPtr, rows+1),
		ColIdx:  reuse(sp.csr.ColIdx, snnz),
		EID:     reuse(sp.csr.EID, snnz),
		Val:     reuse(sp.csr.Val, snnz),
	}
	for r := 0; r <= rows; r++ {
		p := s.rowptr64[m.rowLo+r] - m.edgeLo
		csr.RowPtr[r] = int32(min(max(p, 0), int64(snnz)))
	}
	rs := &residentShard{csr: csr, bytes: 4 * int64(cap(csr.RowPtr)+cap(csr.ColIdx)+cap(csr.EID)+cap(csr.Val)), tk: sp.tk}
	if rs.bytes != sp.bytes {
		rs.tk = s.gov.ReserveMemory(rs.bytes)
		sp.tk.Release()
	}
	if err := s.decode(ctx, s.sections(nil, i, csr.ColIdx, csr.EID, csr.Val)); err != nil {
		rs.tk.Release()
		return nil, err
	}
	return rs, nil
}

// reuse returns a resliced to n elements when its capacity allows, else a
// fresh array of n.
func reuse[T int32 | float32](a []T, n int) []T {
	if cap(a) >= n {
		return a[:n]
	}
	return make([]T, n)
}

// sectionDst is one shard section and the array it decodes into.
type sectionDst struct {
	loc   durable.SectionLoc
	dst   []byte  // the destination array's memory, loc.Len bytes
	ids   []int32 // the destination when it holds ids that must lie in [0, bound)
	bound int64
}

// sections appends shard i's three sections, decoding into col, eid, val.
func (s *ShardedCSR) sections(secs []sectionDst, i int, col, eid []int32, val []float32) []sectionDst {
	m := &s.shards[i]
	return append(secs,
		sectionDst{loc: m.col, dst: byteView(col), ids: col, bound: int64(s.numCols)},
		sectionDst{loc: m.eid, dst: byteView(eid), ids: eid, bound: s.nnz},
		sectionDst{loc: m.val, dst: byteView(val)})
}

// decode is the one shard decoder: every section is a chunk of one phase on
// the shared pool. It returns the first failure in section order — a
// failure stops the phase, but every section before it was already claimed
// and runs to completion — or ctx's error when the phase was abandoned.
func (s *ShardedCSR) decode(ctx context.Context, secs []sectionDst) error {
	errs := make([]error, len(secs))
	var failed atomic.Bool
	job := workpool.Job{
		Body: func(_, c int) {
			if errs[c] = s.decodeSection(&secs[c]); errs[c] != nil {
				failed.Store(true)
			}
		},
		Stop: func() bool { return failed.Load() || ctx.Err() != nil },
	}
	pool := workpool.Default()
	pool.Run(&job, len(secs), pool.MaxRunners())
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// decodeSection reads a section's payload straight into its destination
// (one copy out of a mapping, one positioned read otherwise) and verifies
// the CRC of exactly the bytes it hands out. Ids are range-checked by one
// max-scan (vec.MaxUint32, SSE2 on amd64) against the bound capped at
// 2^31 — a negative int32 read as uint32 is >= 2^31 — and walked one by
// one only to name the offending edge.
func (s *ShardedCSR) decodeSection(d *sectionDst) error {
	if n, err := s.src.ReadAt(d.dst, d.loc.Off); n < len(d.dst) {
		return shardCorrupt(s.path, d.loc.Name, "payload read failed", err)
	}
	if err := d.loc.VerifyPayload(d.dst, s.path, shardKind); err != nil {
		return err
	}
	if !nativeLE {
		for p := 0; p < len(d.dst); p += 4 {
			binary.NativeEndian.PutUint32(d.dst[p:], binary.LittleEndian.Uint32(d.dst[p:]))
		}
	}
	if d.ids == nil || int64(vec.MaxUint32(d.ids)) < min(d.bound, 1<<31) {
		return nil
	}
	for p, v := range d.ids {
		if v < 0 || int64(v) >= d.bound {
			return shardCorrupt(s.path, d.loc.Name, fmt.Sprintf("edge %d holds %d, outside [0, %d)", p, v, d.bound), nil)
		}
	}
	return nil
}

// nativeLE reports a little-endian target, where the file's bytes already
// are the decoded arrays.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// byteView returns a's memory as bytes.
func byteView[T int32 | float32](a []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(a))), 4*len(a))
}

// evictLocked drops least-recently-used unpinned shards until residency
// plus reserve bytes fits the budget. Each victim's arrays become the
// spare, replacing (and releasing) the previous one; a pinned shard is
// never a victim, so it never donates its arrays. Linear scan per
// eviction: shard counts are modest and evictions happen at most once per
// materialization.
func (s *ShardedCSR) evictLocked(reserve int64) {
	if s.opts.BudgetBytes <= 0 {
		return
	}
	for s.used+reserve > s.opts.BudgetBytes {
		victim, oldest := -1, uint64(math.MaxUint64)
		for i, rs := range s.resident {
			if rs.pins == 0 && rs.lastUse < oldest {
				victim, oldest = i, rs.lastUse
			}
		}
		if victim < 0 {
			return // everything over budget is pinned; the pinner pays
		}
		rs := s.resident[victim]
		delete(s.resident, victim)
		s.used -= rs.bytes
		if s.spare != nil {
			s.spare.tk.Release()
		}
		s.spare = rs
		s.stats.Evictions++
	}
}

// Materialize assembles the whole graph as one in-memory CSR — the bridge
// for tools (traingnn) that accept sharded files but run in-memory
// kernels. It bypasses the residency cache (Stats and ResidentBytes do not
// move): every shard's sections decode, with the checks Pin makes, straight
// into the assembled arrays, all of them as one phase on the shared pool.
// Fails with a *LimitError when the graph exceeds in-memory CSR limits.
func (s *ShardedCSR) Materialize(ctx context.Context) (*sparse.CSR, error) {
	if s.nnz > maxDim {
		return nil, &LimitError{Kind: shardKind, Field: "nnz", Value: s.nnz, Max: maxDim}
	}
	g := &sparse.CSR{
		NumRows: s.numRows,
		NumCols: s.numCols,
		RowPtr:  make([]int32, s.numRows+1),
		ColIdx:  make([]int32, s.nnz),
		EID:     make([]int32, s.nnz),
		Val:     make([]float32, s.nnz),
	}
	for r := range g.RowPtr {
		g.RowPtr[r] = int32(s.rowptr64[r])
	}
	// Shards are contiguous edge ranges in CSR storage order, so each
	// decodes into its own span of the arrays, split rows included.
	secs := make([]sectionDst, 0, 3*len(s.shards))
	for i, m := range s.shards {
		lo, hi := m.edgeLo, m.edgeHi
		secs = s.sections(secs, i, g.ColIdx[lo:hi], g.EID[lo:hi], g.Val[lo:hi])
	}
	s.mu.Lock() // Close cannot unmap the source mid-decode
	err := s.decode(ctx, secs)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, shardCorrupt(s.path, "", "structural validation failed", err)
	}
	return g, nil
}

// Close releases the residency cache and its spare arrays (returning their
// admission reservations) and the underlying byte source. Shards still
// pinned are released too: Close invalidates every CSR Pin has handed out.
func (s *ShardedCSR) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, rs := range s.resident {
		rs.tk.Release()
		delete(s.resident, i)
	}
	if s.spare != nil {
		s.spare.tk.Release()
		s.spare = nil
	}
	s.used = 0
	return s.src.Close()
}

func shardCorrupt(path, section, reason string, err error) error {
	return durable.NewCorruptError(path, shardKind, section, reason, err)
}
