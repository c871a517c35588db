package delta

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"featgraph/internal/durable"
	"featgraph/internal/faultinject"
)

// The delta log is a sequence of independent FGDC containers, one per
// committed batch, appended and fsynced before the commit acknowledges.
// Each record is self-framing and self-checking (header CRC + payload
// CRC), so replay walks the file record by record and the first byte of
// damage — the torn tail a crash mid-append leaves — is detected and
// truncated without guesswork. Record payload, little-endian:
//
//	version u64 | nInsert u32 | nDelete u32 |
//	nInsert × (src i32, dst i32, val f32) | nDelete × (src i32, dst i32)
const (
	walKind    = "delta"
	walVersion = 1
	walSection = "batch"
)

func walPath(dir string) string  { return filepath.Join(dir, "delta.wal") }
func basePath(dir string) string { return filepath.Join(dir, "base.fgd") }

// walRec is one encoded log record kept in memory so compaction can
// rewrite the log without re-reading the file.
type walRec struct {
	ver uint64
	enc []byte
}

// encodeRecord frames (ver, b) as one log record.
func encodeRecord(ver uint64, b Batch) []byte {
	payload := make([]byte, 0, 16+12*len(b.Insert)+8*len(b.Delete))
	payload = binary.LittleEndian.AppendUint64(payload, ver)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(b.Insert)))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(b.Delete)))
	for _, e := range b.Insert {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(e.Src))
		payload = binary.LittleEndian.AppendUint32(payload, uint32(e.Dst))
		payload = binary.LittleEndian.AppendUint32(payload, math.Float32bits(e.Val))
	}
	for _, e := range b.Delete {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(e.Src))
		payload = binary.LittleEndian.AppendUint32(payload, uint32(e.Dst))
	}
	var buf bytes.Buffer
	w, err := durable.NewWriter(&buf, walKind, walVersion, 1)
	if err == nil {
		err = w.Section(walSection, payload)
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		// Writing to a bytes.Buffer cannot fail; anything here is a
		// programming error.
		panic("delta: encoding log record: " + err.Error())
	}
	return buf.Bytes()
}

// decodePayload parses a record payload back into (version, Batch). Every
// structural lie — counts that disagree with the payload length, vertex
// ids that don't fit int32 — is an error, never a panic.
func decodePayload(p []byte) (uint64, Batch, error) {
	if len(p) < 16 {
		return 0, Batch{}, fmt.Errorf("payload too short (%d bytes)", len(p))
	}
	ver := binary.LittleEndian.Uint64(p)
	nIns := binary.LittleEndian.Uint32(p[8:])
	nDel := binary.LittleEndian.Uint32(p[12:])
	want := 16 + 12*uint64(nIns) + 8*uint64(nDel)
	if uint64(len(p)) != want {
		return 0, Batch{}, fmt.Errorf("payload %d bytes, counts imply %d", len(p), want)
	}
	b := Batch{}
	off := 16
	if nIns > 0 {
		b.Insert = make([]Edge, nIns)
		for i := range b.Insert {
			b.Insert[i] = Edge{
				Src: int32(binary.LittleEndian.Uint32(p[off:])),
				Dst: int32(binary.LittleEndian.Uint32(p[off+4:])),
				Val: math.Float32frombits(binary.LittleEndian.Uint32(p[off+8:])),
			}
			off += 12
		}
	}
	if nDel > 0 {
		b.Delete = make([]Edge, nDel)
		for i := range b.Delete {
			b.Delete[i] = Edge{
				Src: int32(binary.LittleEndian.Uint32(p[off:])),
				Dst: int32(binary.LittleEndian.Uint32(p[off+4:])),
			}
			off += 8
		}
	}
	return ver, b, nil
}

// replayRec is one decoded, to-be-applied log record.
type replayRec struct {
	ver   uint64
	batch Batch
	enc   []byte
}

// replayLog walks the log bytes and returns the records to apply on top
// of baseVer, plus how many bytes of the file are good. Records at or
// below baseVer are already inside the base and are skipped (a crash
// between base publish and log rewrite leaves them behind, harmlessly).
// The first undecodable record ends the walk: it is the torn tail of a
// crashed append and the caller truncates there. A record that decodes
// but breaks the version chain (gap, regression) is hard corruption and
// fails the open — truncating it could silently drop acknowledged
// commits.
func replayLog(data []byte, baseVer uint64) (consumed int64, recs []replayRec, err error) {
	off := 0
	prev := uint64(0)
	first := true
	for off < len(data) {
		br := bytes.NewReader(data[off:])
		rd, rerr := durable.OpenReader(br, "delta.wal", walKind, walVersion)
		if rerr != nil {
			break // torn tail
		}
		secs, rerr := rd.ReadAll()
		if rerr != nil {
			break // torn tail
		}
		recLen := (len(data) - off) - br.Len()
		payload, ok := secs[walSection]
		if !ok {
			return int64(off), nil, durable.NewCorruptError("delta.wal", walKind, walSection,
				"record missing batch section", nil)
		}
		ver, batch, derr := decodePayload(payload)
		if derr != nil {
			return int64(off), nil, durable.NewCorruptError("delta.wal", walKind, walSection,
				derr.Error(), nil)
		}
		if !first && ver != prev+1 {
			return int64(off), nil, durable.NewCorruptError("delta.wal", walKind, "",
				fmt.Sprintf("version %d follows %d", ver, prev), nil)
		}
		first = false
		prev = ver
		if ver > baseVer {
			if len(recs) == 0 && ver != baseVer+1 {
				return int64(off), nil, durable.NewCorruptError("delta.wal", walKind, "",
					fmt.Sprintf("log starts at v%d, base is v%d", ver, baseVer), nil)
			}
			recs = append(recs, replayRec{ver: ver, batch: batch, enc: data[off : off+recLen]})
		}
		off += recLen
	}
	return int64(off), recs, nil
}

// wal owns the open log file. All methods are called under Engine.mu (or
// before the engine is published), so appends, truncations, and rewrites
// never interleave.
type wal struct {
	path   string
	f      *os.File
	size   int64 // durable end; failed appends roll back to it
	broken bool  // a rollback failed: the file may be torn, refuse writes
}

// openWAL opens (creating if absent) the log and returns its current
// bytes for replay. The caller truncates to the replay's consumed length
// via truncateTo before appending.
func openWAL(path string) (*wal, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("delta: reading log: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("delta: opening log: %w", err)
	}
	return &wal{path: path, f: f, size: int64(len(data))}, data, nil
}

// truncateTo discards everything past n — the torn tail replay found.
func (w *wal) truncateTo(n int64) error {
	if n == w.size {
		return nil
	}
	if err := w.f.Truncate(n); err != nil {
		return fmt.Errorf("delta: truncating log tail: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("delta: truncating log tail: %w", err)
	}
	w.size = n
	return nil
}

// append writes one record and fsyncs. The record is deliberately written
// in two halves with the torn-write fault site between them, so a Kill
// armed there dies with a genuinely half-written record on disk — the
// exact state replay's torn-tail truncation must recover from. On any
// failure the file is rolled back to its pre-append length, keeping the
// log replayable without losing acknowledged commits.
func (w *wal) append(rec []byte) error {
	if w.broken {
		return fmt.Errorf("delta: log damaged by earlier failed rollback")
	}
	half := len(rec) / 2
	if _, err := w.f.Write(rec[:half]); err != nil {
		return w.fail(err)
	}
	faultinject.Hit(faultinject.SiteDeltaWALAppend, nil, nil)
	if err := faultinject.CheckErr(faultinject.SiteDeltaWALAppend); err != nil {
		return w.fail(err)
	}
	if _, err := w.f.Write(rec[half:]); err != nil {
		return w.fail(err)
	}
	faultinject.Hit(faultinject.SiteDeltaWALFsync, nil, nil)
	if err := faultinject.CheckErr(faultinject.SiteDeltaWALFsync); err != nil {
		return w.fail(err)
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(err)
	}
	w.size += int64(len(rec))
	return nil
}

// fail rolls a failed append back to the last durable record boundary.
func (w *wal) fail(err error) error {
	if terr := w.f.Truncate(w.size); terr != nil {
		w.broken = true
		return fmt.Errorf("%w (rollback also failed: %v)", err, terr)
	}
	return err
}

// resetTo atomically replaces the log with just the given records —
// compaction's second step. The rewrite is staged in a temp file and
// renamed, so a crash leaves either the old log (its extra records are
// skipped at replay, being covered by the new base) or the new one.
func (w *wal) resetTo(tail []walRec) error {
	dir := filepath.Dir(w.path)
	tmp, err := os.CreateTemp(dir, ".fgtmp-"+filepath.Base(w.path)+"-*")
	if err != nil {
		return fmt.Errorf("delta: staging log rewrite: %w", err)
	}
	tmpName := tmp.Name()
	var size int64
	werr := func() error {
		for _, r := range tail {
			if _, err := tmp.Write(r.enc); err != nil {
				return err
			}
			size += int64(len(r.enc))
		}
		faultinject.Hit(faultinject.SiteDeltaWALReset, nil, nil)
		if err := faultinject.CheckErr(faultinject.SiteDeltaWALReset); err != nil {
			return err
		}
		return tmp.Sync()
	}()
	if werr != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("delta: rewriting log: %w", werr)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("delta: rewriting log: %w", err)
	}
	if err := os.Rename(tmpName, w.path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("delta: publishing rewritten log: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	// The old fd still points at the unlinked previous log; swap to the
	// new file before any further append.
	nf, err := os.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("delta: reopening rewritten log: %w", err)
	}
	w.f.Close()
	w.f = nf
	w.size = size
	w.broken = false
	return nil
}

func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
