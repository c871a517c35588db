// Package delta is the versioned graph engine: it turns the repository's
// static CSR adjacency into a mutable graph that serves reads and accepts
// writes at the same time, without stop-the-world rebuilds and without a
// crash ever exposing a half-applied batch.
//
// # Model
//
// An Engine holds a base CSR plus a copy-on-write overlay of fully
// replaced destination rows. A committed Batch of edge inserts/deletes
// produces version v+1 by rewriting only the touched rows into fresh
// patches and publishing a new overlay map (the map header is copied per
// commit, patches are immutable and shared), so every committed version
// remains addressable for as long as a reader holds it. Readers never see
// the overlay directly: a Snapshot pins one committed version and
// materializes it — merges base and overlay into a plain *sparse.CSR with
// edge ids renumbered row-major — exactly once, on demand. Serving reads
// go through PinLatest, which returns the newest already-materialized
// snapshot from an atomic pointer, so the read path never waits on an
// O(nnz) merge; a background goroutine materializes fresh commits and
// promotes them.
//
// Snapshots are reclaimed by refcount: the engine holds one reference for
// the current version and one for the serving pointer, each reader pin is
// another, and when the count drains the engine's reclaim hook fires with
// the dead version (Config.OnReclaim), where a caller evicts what it keyed
// to that version.
//
// # Durability
//
// With a directory configured, every commit appends one CRC-framed FGDC
// record to a write-ahead delta log and fsyncs before acknowledging.
// Background compaction folds the overlay into a fresh durable base
// (written atomically) and rewrites the log to just the records past the
// new base, so the log stays short. Reopen replays the log onto the last
// durable base: complete records are applied in version order, a torn
// tail (the signature of a crash mid-append) is truncated, and the
// recovered graph is bitwise-identical to the newest version whose commit
// reached the disk. The faultinject sites SiteDeltaWALAppend/WALFsync/
// BaseSwap/WALReset cover every crash window of this protocol and are
// exercised by external-process SIGKILL tests.
package delta

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"featgraph/internal/durable"
	"featgraph/internal/sparse"
	"featgraph/internal/telemetry"
)

var (
	mCommits = telemetry.NewCounter("featgraph_delta_commits_total", "",
		"Delta batches durably committed.")
	mEdgesApplied = telemetry.NewCounter("featgraph_delta_edges_applied_total", "",
		"Edge mutations (inserts plus deletes) applied by committed batches.")
	mCompactions = telemetry.NewCounter("featgraph_delta_compactions_total", "",
		"Background compactions that folded the overlay into a fresh base.")
	mReplayed = telemetry.NewCounter("featgraph_delta_replayed_records_total", "",
		"Delta-log records replayed during Open.")
	mTruncated = telemetry.NewCounter("featgraph_delta_truncated_bytes_total", "",
		"Torn delta-log tail bytes discarded during Open.")
	mReclaimed = telemetry.NewCounter("featgraph_delta_snapshots_reclaimed_total", "",
		"Snapshots whose refcount drained and were reclaimed.")
	mLive = telemetry.NewGauge("featgraph_delta_snapshots_live", "",
		"Snapshots currently reachable (pinned or engine-held), process-wide.")
)

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("delta: engine closed")

// Edge names one directed edge src→dst in the paper's SpMM orientation
// (CSR rows are destinations). Val is the edge weight for inserts and is
// ignored for deletes.
type Edge struct {
	Src int32
	Dst int32
	Val float32
}

// Batch is one atomic mutation: deletes apply first, then inserts.
// Inserting an edge that exists (and is not deleted in the same batch),
// deleting one that doesn't, or naming one edge twice on the same side
// rejects the whole batch — all-or-nothing, before anything is logged.
type Batch struct {
	Insert []Edge
	Delete []Edge
}

// Config tunes an Engine.
type Config struct {
	// Dir is the durability directory (base file + delta log). Empty
	// means in-memory only: commits are not logged and the graph dies
	// with the process.
	Dir string
	// CompactRows triggers background compaction once the overlay holds
	// at least this many patched rows. <= 0 means 1024.
	CompactRows int
	// OnReclaim, if set, is invoked with each version whose last snapshot
	// reference drains. Callers hang precise cache invalidation here. It
	// may be called from any goroutine and must not call back into the
	// engine.
	OnReclaim func(version uint64)
}

// rowPatch is the full replacement content of one destination row,
// column-sorted. ver records the commit that produced it so compaction
// can tell which patches a new base has absorbed. Patches are immutable
// once published.
type rowPatch struct {
	ver  uint64
	cols []int32
	vals []float32
}

// Engine is a mutable, versioned graph. One writer commits at a time
// (serialized internally); any number of readers pin snapshots
// concurrently.
type Engine struct {
	id  uint64 // reserved topology identity shared by all versions
	nv  int
	cfg Config

	mu         sync.Mutex
	base       *sparse.CSR // canonical CSR holding every version <= baseVer
	baseVer    uint64
	overlay    map[int32]*rowPatch // patches with ver in (baseVer, version]
	version    uint64              // latest committed version
	edges      int                 // edge count at version
	cur        *Snapshot           // latest committed snapshot (one engine ref)
	tail       []walRec            // encoded log records with ver > baseVer
	wal        *wal                // nil when in-memory
	closed     bool
	compacting bool

	serving atomic.Pointer[Snapshot] // latest materialized snapshot (one ref)

	matCh chan struct{} // coalesced "new version to materialize" signal
	quit  chan struct{}
	done  chan struct{}  // materializer exited
	wg    sync.WaitGroup // in-flight compactions
}

// New creates an engine at version 0 from base. The base is canonicalized
// (arrays cloned, edge ids renumbered row-major) so later materialized
// versions and recovery rebuilds agree bitwise. With cfg.Dir set the
// initial base is persisted and an empty delta log created; New refuses a
// directory that already holds a store — reopen those with Open.
func New(base *sparse.CSR, cfg Config) (*Engine, error) {
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("delta: base: %w", err)
	}
	if base.NumRows != base.NumCols {
		return nil, fmt.Errorf("delta: base must be square, got %dx%d", base.NumRows, base.NumCols)
	}
	canon := canonicalize(base)
	e := newEngine(canon, 0, cfg)
	if cfg.Dir != "" {
		if _, err := os.Stat(basePath(cfg.Dir)); err == nil {
			return nil, fmt.Errorf("delta: %s already holds a store (use Open)", cfg.Dir)
		}
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("delta: %w", err)
		}
		durable.SweepTemps(cfg.Dir)
		if err := saveBase(basePath(cfg.Dir), canon, 0); err != nil {
			return nil, err
		}
		w, data, err := openWAL(walPath(cfg.Dir))
		if err != nil {
			return nil, err
		}
		if len(data) > 0 { // stale log next to no base: start clean
			if err := w.resetTo(nil); err != nil {
				w.close()
				return nil, err
			}
		}
		e.wal = w
	}
	e.start()
	return e, nil
}

// Open recovers an engine from a directory written by a previous process:
// the last durable base is loaded, complete delta-log records past it are
// replayed in version order, and a torn tail is truncated. The recovered
// engine resumes exactly at the newest committed version.
func Open(cfg Config) (*Engine, error) {
	if cfg.Dir == "" {
		return nil, errors.New("delta: Open requires Config.Dir")
	}
	durable.SweepTemps(cfg.Dir)
	base, baseVer, err := loadBase(basePath(cfg.Dir))
	if err != nil {
		return nil, err
	}
	e := newEngine(base, baseVer, cfg)
	w, data, err := openWAL(walPath(cfg.Dir))
	if err != nil {
		return nil, err
	}
	consumed, recs, err := replayLog(data, baseVer)
	if err != nil {
		w.close()
		return nil, err
	}
	for _, r := range recs {
		plan, edits, err := e.applyPlan(r.batch)
		if err != nil {
			w.close()
			return nil, durable.NewCorruptError(walPath(cfg.Dir), walKind, "",
				fmt.Sprintf("record v%d does not apply", r.ver), err)
		}
		e.applyLocked(r.ver, plan, edits, r.enc)
		if telemetry.Enabled() {
			mReplayed.Inc()
		}
	}
	if torn := int64(len(data)) - consumed; torn > 0 {
		if telemetry.Enabled() {
			mTruncated.Add(uint64(torn))
		}
	}
	if err := w.truncateTo(consumed); err != nil {
		w.close()
		return nil, err
	}
	e.wal = w
	// Replace the version-0 snapshot wiring done by newEngine with the
	// recovered tip, materialized synchronously so serving is ready the
	// moment Open returns.
	if e.version > e.baseVer {
		e.refreshCur()
		e.cur.CSR()
		e.promoteServing(e.acquireCur())
	}
	e.start()
	return e, nil
}

// newEngine wires the in-memory state at the given base version, with the
// base snapshot current and serving. Durability and goroutines are the
// caller's job.
func newEngine(base *sparse.CSR, baseVer uint64, cfg Config) *Engine {
	if cfg.CompactRows <= 0 {
		cfg.CompactRows = 1024
	}
	e := &Engine{
		id:      sparse.ReserveIdentity(),
		nv:      base.NumRows,
		cfg:     cfg,
		base:    base,
		baseVer: baseVer,
		overlay: map[int32]*rowPatch{},
		version: baseVer,
		edges:   base.NNZ(),
		matCh:   make(chan struct{}, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	base.BindVersion(e.id, baseVer)
	s := e.newSnapshot(base)
	e.cur = s // engine ref from newSnapshot
	s.refs.Add(1)
	e.serving.Store(s) // serving ref
	return e
}

func (e *Engine) start() { go e.materializer() }

// ID returns the topology identity shared by every materialized version
// of this graph — the first half of (identity, version) cache keys.
func (e *Engine) ID() uint64 { return e.id }

// NumVertices returns the (fixed) vertex count.
func (e *Engine) NumVertices() int { return e.nv }

// Version returns the latest committed version.
func (e *Engine) Version() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.version
}

// NumEdges returns the edge count at the latest committed version.
func (e *Engine) NumEdges() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.edges
}

// Commit atomically applies b as the next version and returns it. The
// batch is validated against the current version first; with durability
// configured the log record is on disk (fsynced) before the new version
// becomes visible or Commit returns. Commits are serialized; readers are
// never blocked by one.
func (e *Engine) Commit(b Batch) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, ErrClosed
	}
	plan, edits, err := e.applyPlan(b)
	if err != nil {
		return 0, err
	}
	ver := e.version + 1
	var enc []byte
	if e.wal != nil {
		enc = encodeRecord(ver, b)
		if err := e.wal.append(enc); err != nil {
			return 0, fmt.Errorf("delta: logging v%d: %w", ver, err)
		}
	}
	e.applyLocked(ver, plan, edits, enc)
	e.refreshCur()
	select {
	case e.matCh <- struct{}{}:
	default:
	}
	if !e.compacting && len(e.overlay) >= e.cfg.CompactRows {
		e.compacting = true
		e.wg.Add(1)
		go e.compact()
	}
	if telemetry.Enabled() {
		mCommits.Inc()
		mEdgesApplied.Add(uint64(len(b.Insert) + len(b.Delete)))
	}
	return ver, nil
}

// applyLocked installs a validated plan as version ver. Caller holds mu.
func (e *Engine) applyLocked(ver uint64, plan map[int32]*rowPatch, edits int, enc []byte) {
	next := make(map[int32]*rowPatch, len(e.overlay)+len(plan))
	for r, p := range e.overlay {
		next[r] = p
	}
	for r, p := range plan {
		p.ver = ver
		next[r] = p
	}
	e.overlay = next
	e.version = ver
	e.edges += edits
	if enc != nil {
		e.tail = append(e.tail, walRec{ver: ver, enc: enc})
	}
}

// refreshCur publishes a snapshot of the current version, releasing the
// engine's reference to the previous one. Caller holds mu.
func (e *Engine) refreshCur() {
	old := e.cur
	e.cur = e.newSnapshot(nil)
	if old != nil {
		old.Release()
	}
}

// applyPlan validates b against the current logical state and returns the
// replacement content for every touched row plus the net edge-count
// change. Nothing is mutated; on error the engine state is untouched.
func (e *Engine) applyPlan(b Batch) (map[int32]*rowPatch, int, error) {
	if len(b.Insert) == 0 && len(b.Delete) == 0 {
		return nil, 0, errors.New("delta: empty batch")
	}
	type rowEdit struct {
		ins []Edge
		del []Edge
	}
	touched := map[int32]*rowEdit{}
	edit := func(dst int32) *rowEdit {
		ed := touched[dst]
		if ed == nil {
			ed = &rowEdit{}
			touched[dst] = ed
		}
		return ed
	}
	for _, d := range b.Delete {
		if err := e.checkRange(d); err != nil {
			return nil, 0, err
		}
		ed := edit(d.Dst)
		ed.del = append(ed.del, d)
	}
	for _, in := range b.Insert {
		if err := e.checkRange(in); err != nil {
			return nil, 0, err
		}
		ed := edit(in.Dst)
		ed.ins = append(ed.ins, in)
	}
	plan := make(map[int32]*rowPatch, len(touched))
	for dst, ed := range touched {
		cols, vals := e.rowContent(dst)
		p, err := mergeRow(dst, cols, vals, ed.ins, ed.del)
		if err != nil {
			return nil, 0, err
		}
		plan[dst] = p
	}
	return plan, len(b.Insert) - len(b.Delete), nil
}

func (e *Engine) checkRange(ed Edge) error {
	if ed.Src < 0 || int(ed.Src) >= e.nv || ed.Dst < 0 || int(ed.Dst) >= e.nv {
		return fmt.Errorf("delta: edge %d→%d outside %d vertices", ed.Src, ed.Dst, e.nv)
	}
	return nil
}

// rowContent returns the current column-sorted content of destination row
// dst — the overlay patch if one exists, else the base row. The returned
// slices are shared and must not be mutated.
func (e *Engine) rowContent(dst int32) ([]int32, []float32) {
	if p, ok := e.overlay[dst]; ok {
		return p.cols, p.vals
	}
	lo, hi := e.base.RowPtr[dst], e.base.RowPtr[dst+1]
	return e.base.ColIdx[lo:hi], e.base.Val[lo:hi]
}

// mergeRow builds the replacement content of one row: deletes removed,
// inserts merged in column order, every constraint checked.
func mergeRow(dst int32, cols []int32, vals []float32, ins, del []Edge) (*rowPatch, error) {
	sort.Slice(ins, func(i, j int) bool { return ins[i].Src < ins[j].Src })
	sort.Slice(del, func(i, j int) bool { return del[i].Src < del[j].Src })
	for i := 1; i < len(ins); i++ {
		if ins[i].Src == ins[i-1].Src {
			return nil, fmt.Errorf("delta: edge %d→%d inserted twice in one batch", ins[i].Src, dst)
		}
	}
	for i := 1; i < len(del); i++ {
		if del[i].Src == del[i-1].Src {
			return nil, fmt.Errorf("delta: edge %d→%d deleted twice in one batch", del[i].Src, dst)
		}
	}
	for i, j := 0, 0; i < len(ins) && j < len(del); {
		switch {
		case ins[i].Src < del[j].Src:
			i++
		case ins[i].Src > del[j].Src:
			j++
		default:
			return nil, fmt.Errorf("delta: edge %d→%d both inserted and deleted in one batch", ins[i].Src, dst)
		}
	}
	// Remove deletes from the existing row.
	kept := make([]int32, 0, len(cols))
	keptV := make([]float32, 0, len(cols))
	j := 0
	for i, c := range cols {
		if j < len(del) && del[j].Src < c {
			return nil, fmt.Errorf("delta: delete of missing edge %d→%d", del[j].Src, dst)
		}
		if j < len(del) && del[j].Src == c {
			j++
			continue
		}
		kept = append(kept, c)
		keptV = append(keptV, vals[i])
	}
	if j < len(del) {
		return nil, fmt.Errorf("delta: delete of missing edge %d→%d", del[j].Src, dst)
	}
	// Merge inserts in, rejecting duplicates of surviving edges.
	out := make([]int32, 0, len(kept)+len(ins))
	outV := make([]float32, 0, len(kept)+len(ins))
	i, k := 0, 0
	for i < len(kept) || k < len(ins) {
		switch {
		case k == len(ins) || (i < len(kept) && kept[i] < ins[k].Src):
			out = append(out, kept[i])
			outV = append(outV, keptV[i])
			i++
		case i == len(kept) || ins[k].Src < kept[i]:
			out = append(out, ins[k].Src)
			outV = append(outV, ins[k].Val)
			k++
		default:
			return nil, fmt.Errorf("delta: edge %d→%d already exists", ins[k].Src, dst)
		}
	}
	return &rowPatch{cols: out, vals: outV}, nil
}

// Acquire pins the latest committed snapshot, which may not be
// materialized yet — its CSR() call pays the merge if so. Callers must
// Release it. Returns nil on a closed engine.
func (e *Engine) Acquire() *Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	return e.acquireCur()
}

func (e *Engine) acquireCur() *Snapshot {
	s := e.cur
	s.refs.Add(1)
	return s
}

// PinLatest pins the newest materialized snapshot for a serving read: the
// returned CSR is ready (no merge on this path), ver is its version, and
// release must be called exactly once when the request completes. During
// a commit burst the pinned version may trail the committed tip by the
// in-flight materializations — consistent, slightly stale, never torn.
func (e *Engine) PinLatest() (adj *sparse.CSR, ver uint64, release func(), err error) {
	for {
		s := e.serving.Load()
		if s == nil {
			return nil, 0, nil, ErrClosed
		}
		if s.tryAcquire() {
			return s.CSR(), s.version, s.Release, nil
		}
		// The serving pointer was swapped and the old snapshot fully
		// released between the load and the acquire; retry on the new one.
	}
}

// promoteServing installs s (already pinned by the caller) as the serving
// snapshot if it is newer, transferring the caller's reference; otherwise
// the reference is dropped.
func (e *Engine) promoteServing(s *Snapshot) {
	for {
		old := e.serving.Load()
		if old == nil || old.version >= s.version {
			s.Release()
			return
		}
		if e.serving.CompareAndSwap(old, s) {
			old.Release()
			return
		}
	}
}

// materializer runs in the background: after each commit it materializes
// the newest committed snapshot and promotes it to serving. Signals are
// coalesced, so a burst of commits materializes only the versions the
// loop actually observes.
func (e *Engine) materializer() {
	defer close(e.done)
	for {
		select {
		case <-e.quit:
			return
		case <-e.matCh:
		}
		s := e.Acquire()
		if s == nil {
			return
		}
		s.CSR() // the expensive merge, outside every lock
		e.promoteServing(s)
	}
}

// reclaim runs when a snapshot's last reference drains.
func (e *Engine) reclaim(s *Snapshot) {
	mLive.Add(-1)
	if telemetry.Enabled() {
		mReclaimed.Inc()
	}
	if e.cfg.OnReclaim != nil {
		e.cfg.OnReclaim(s.version)
	}
}

// Close stops background work, releases the engine's snapshot references,
// and closes the delta log. Outstanding reader pins stay valid; their
// snapshots are reclaimed as they release. Commit and PinLatest fail
// after Close.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.done
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	close(e.quit)
	<-e.done
	e.wg.Wait()
	if s := e.serving.Swap(nil); s != nil {
		s.Release()
	}
	e.mu.Lock()
	cur := e.cur
	e.cur = nil
	w := e.wal
	e.wal = nil
	e.mu.Unlock()
	if cur != nil {
		cur.Release()
	}
	if w != nil {
		return w.close()
	}
	return nil
}

// canonicalize clones base with edge ids renumbered row-major, the
// canonical form every materialized version uses: recovery rebuilds and
// live materializations then agree bitwise, including EID order.
func canonicalize(c *sparse.CSR) *sparse.CSR {
	nnz := c.NNZ()
	out := &sparse.CSR{
		NumRows: c.NumRows,
		NumCols: c.NumCols,
		RowPtr:  append([]int32(nil), c.RowPtr...),
		ColIdx:  append([]int32(nil), c.ColIdx...),
		EID:     make([]int32, nnz),
		Val:     append([]float32(nil), c.Val...),
	}
	for i := range out.EID {
		out.EID[i] = int32(i)
	}
	return out
}
