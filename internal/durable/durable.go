// Package durable is the crash-safe persistence substrate: every byte this
// repository puts on disk goes through it. It provides two guarantees the
// naive write-a-file path cannot:
//
//   - Atomicity. AtomicWriteFile stages content in a temp file, fsyncs it,
//     and renames it over the destination, so a crash at any instant leaves
//     either the old complete file or the new complete file — never a
//     truncated hybrid.
//
//   - Detection. The container format frames content as named sections,
//     each carrying its own CRC32-C, under a versioned header with its own
//     checksum. A torn tail, a bit flip, or a foreign file produces a typed
//     *CorruptError (or *VersionError for files from a newer binary), never
//     a panic and never silently wrong data. Callers degrade — rebuild a
//     cache entry, re-tune a plan, fall back to an older checkpoint —
//     instead of crashing.
//
// Container layout (little-endian):
//
//	magic "FGDC" | containerVersion u16 | kindLen u8 | kind | kindVersion u16 |
//	sectionCount u32 | headerCRC u32
//	then per section:
//	nameLen u8 | name | payloadLen u64 | sectionHdrCRC u32 | payload | payloadCRC u32
//
// The section-header CRC covers the name and declared length, so a bit flip
// in a length field is detected before it can drive a giant read; payloads
// are read in bounded chunks so even an undetected lie about length fails
// with a typed error rather than an enormous allocation.
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// magic is the 4-byte signature of every durable container file.
var magic = [4]byte{'F', 'G', 'D', 'C'}

// ContainerVersion is the layout revision of the container itself,
// independent of each kind's own version.
const ContainerVersion = 1

const (
	// maxSections bounds the declared section count; real formats use
	// at most a few hundred (checkpoints: 3 sections per parameter).
	maxSections = 1 << 16
	// maxSectionLen bounds a declared payload length (1 TiB). Anything
	// larger is treated as corruption outright.
	maxSectionLen = 1 << 40
	// readChunk is the incremental allocation step for payload reads: a
	// lying length field costs at most one chunk of memory before the
	// truncation is detected.
	readChunk = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Writer emits a container. Sections are written in call order; Close
// verifies the declared count was honored.
type Writer struct {
	w        io.Writer
	declared int
	written  int
	err      error
}

// NewWriter starts a container of the given kind and kind-version holding
// exactly sections sections.
func NewWriter(w io.Writer, kind string, version uint16, sections int) (*Writer, error) {
	if len(kind) == 0 || len(kind) > 255 {
		return nil, fmt.Errorf("durable: kind %q must be 1..255 bytes", kind)
	}
	if sections < 0 || sections > maxSections {
		return nil, fmt.Errorf("durable: section count %d out of range", sections)
	}
	hdr := make([]byte, 0, 16+len(kind))
	hdr = append(hdr, magic[:]...)
	hdr = binary.LittleEndian.AppendUint16(hdr, ContainerVersion)
	hdr = append(hdr, byte(len(kind)))
	hdr = append(hdr, kind...)
	hdr = binary.LittleEndian.AppendUint16(hdr, version)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(sections))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr, crcTable))
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	return &Writer{w: w, declared: sections}, nil
}

func (wr *Writer) sectionHeader(name string, size uint64) error {
	if len(name) == 0 || len(name) > 255 {
		return fmt.Errorf("durable: section name %q must be 1..255 bytes", name)
	}
	if wr.written >= wr.declared {
		return fmt.Errorf("durable: section %q exceeds declared count %d", name, wr.declared)
	}
	hdr := make([]byte, 0, 16+len(name))
	hdr = append(hdr, byte(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.LittleEndian.AppendUint64(hdr, size)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr, crcTable))
	_, err := wr.w.Write(hdr)
	return err
}

// Section writes one named section from an in-memory payload.
func (wr *Writer) Section(name string, payload []byte) error {
	if wr.err != nil {
		return wr.err
	}
	if err := wr.sectionHeader(name, uint64(len(payload))); err != nil {
		wr.err = err
		return err
	}
	if _, err := wr.w.Write(payload); err != nil {
		wr.err = err
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, crcTable))
	if _, err := wr.w.Write(crc[:]); err != nil {
		wr.err = err
		return err
	}
	wr.written++
	return nil
}

// Stream writes one named section of exactly size bytes produced by fn,
// checksumming on the fly — large array sections avoid a second in-memory
// copy of their payload.
func (wr *Writer) Stream(name string, size int64, fn func(io.Writer) error) error {
	if wr.err != nil {
		return wr.err
	}
	if size < 0 {
		wr.err = fmt.Errorf("durable: negative section size %d", size)
		return wr.err
	}
	if err := wr.sectionHeader(name, uint64(size)); err != nil {
		wr.err = err
		return err
	}
	cw := &crcWriter{w: wr.w, crc: crc32.New(crcTable)}
	if err := fn(cw); err != nil {
		wr.err = err
		return err
	}
	if cw.n != size {
		wr.err = fmt.Errorf("durable: section %q wrote %d bytes, declared %d", name, cw.n, size)
		return wr.err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], cw.crc.Sum32())
	if _, err := wr.w.Write(crc[:]); err != nil {
		wr.err = err
		return err
	}
	wr.written++
	return nil
}

// Close verifies every declared section was written. It does not close the
// underlying writer.
func (wr *Writer) Close() error {
	if wr.err != nil {
		return wr.err
	}
	if wr.written != wr.declared {
		return fmt.Errorf("durable: wrote %d sections, declared %d", wr.written, wr.declared)
	}
	return nil
}

type crcWriter struct {
	w   io.Writer
	crc hash32
	n   int64
}

type hash32 interface {
	io.Writer
	Sum32() uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc.Write(p[:n])
	cw.n += int64(n)
	return n, err
}

// Reader parses a container, validating checksums as it goes. Sections are
// consumed in file order with Next; ReadAll collects the rest into a map.
type Reader struct {
	r       io.Reader
	path    string
	kind    string
	version uint16
	count   int
	read    int
}

// OpenReader validates the container header against the expected kind and
// the newest kind-version this binary understands. A wrong magic, damaged
// header, or kind mismatch yields *CorruptError; a newer version yields
// *VersionError. path is used only for error messages.
func OpenReader(r io.Reader, path, kind string, maxVersion uint16) (*Reader, error) {
	var fixed [7]byte // magic + containerVersion + kindLen
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, corrupt(path, kind, "", "short header", err)
	}
	if [4]byte(fixed[0:4]) != magic {
		return nil, corrupt(path, kind, "", fmt.Sprintf("bad magic %q", fixed[0:4]), nil)
	}
	if cv := binary.LittleEndian.Uint16(fixed[4:6]); cv != ContainerVersion {
		return nil, &VersionError{Path: path, Kind: kind, Got: cv, Want: ContainerVersion}
	}
	kindLen := int(fixed[6])
	rest := make([]byte, kindLen+10) // kind + kindVersion u16 + count u32 + crc u32
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, corrupt(path, kind, "", "short header", err)
	}
	hdr := append(append([]byte{}, fixed[:]...), rest[:kindLen+6]...)
	wantCRC := binary.LittleEndian.Uint32(rest[kindLen+6:])
	if crc32.Checksum(hdr, crcTable) != wantCRC {
		return nil, corrupt(path, kind, "", "header checksum mismatch", nil)
	}
	gotKind := string(rest[:kindLen])
	if gotKind != kind {
		return nil, corrupt(path, kind, "", fmt.Sprintf("container holds %q, want %q", gotKind, kind), nil)
	}
	version := binary.LittleEndian.Uint16(rest[kindLen : kindLen+2])
	if version > maxVersion {
		return nil, &VersionError{Path: path, Kind: kind, Got: version, Want: maxVersion}
	}
	count := binary.LittleEndian.Uint32(rest[kindLen+2 : kindLen+6])
	if count > maxSections {
		return nil, corrupt(path, kind, "", fmt.Sprintf("implausible section count %d", count), nil)
	}
	return &Reader{r: r, path: path, kind: kind, version: version, count: int(count)}, nil
}

// Version returns the kind-version recorded in the header.
func (rd *Reader) Version() uint16 { return rd.version }

// Sections returns the number of sections declared in the header.
func (rd *Reader) Sections() int { return rd.count }

// Next reads the next section, verifying its checksum. It returns io.EOF
// after the declared final section; any damage yields *CorruptError.
func (rd *Reader) Next() (string, []byte, error) {
	if rd.read >= rd.count {
		return "", nil, io.EOF
	}
	var nameLen [1]byte
	if _, err := io.ReadFull(rd.r, nameLen[:]); err != nil {
		return "", nil, corrupt(rd.path, rd.kind, "", "short section header", err)
	}
	hdr := make([]byte, 1+int(nameLen[0])+8)
	hdr[0] = nameLen[0]
	if _, err := io.ReadFull(rd.r, hdr[1:]); err != nil {
		return "", nil, corrupt(rd.path, rd.kind, "", "short section header", err)
	}
	var hdrCRC [4]byte
	if _, err := io.ReadFull(rd.r, hdrCRC[:]); err != nil {
		return "", nil, corrupt(rd.path, rd.kind, "", "short section header", err)
	}
	if crc32.Checksum(hdr, crcTable) != binary.LittleEndian.Uint32(hdrCRC[:]) {
		return "", nil, corrupt(rd.path, rd.kind, "", "section header checksum mismatch", nil)
	}
	name := string(hdr[1 : 1+nameLen[0]])
	size := binary.LittleEndian.Uint64(hdr[1+nameLen[0]:])
	if size > maxSectionLen {
		return "", nil, corrupt(rd.path, rd.kind, name, fmt.Sprintf("implausible section length %d", size), nil)
	}
	payload, err := readCapped(rd.r, size)
	if err != nil {
		return "", nil, corrupt(rd.path, rd.kind, name, "truncated payload", err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(rd.r, crc[:]); err != nil {
		return "", nil, corrupt(rd.path, rd.kind, name, "missing payload checksum", err)
	}
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(crc[:]) {
		return "", nil, corrupt(rd.path, rd.kind, name, "payload checksum mismatch", nil)
	}
	rd.read++
	return name, payload, nil
}

// ReadAll consumes the remaining sections into a name→payload map.
// Duplicate section names are corruption.
func (rd *Reader) ReadAll() (map[string][]byte, error) {
	out := make(map[string][]byte, rd.count-rd.read)
	for {
		name, payload, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if _, dup := out[name]; dup {
			return nil, corrupt(rd.path, rd.kind, name, "duplicate section", nil)
		}
		out[name] = payload
	}
}

// readCapped reads exactly n bytes, growing the buffer in bounded chunks so
// a corrupt length cannot force a giant up-front allocation.
func readCapped(r io.Reader, n uint64) ([]byte, error) {
	if n > math.MaxInt {
		return nil, io.ErrUnexpectedEOF
	}
	total := int(n)
	buf := make([]byte, 0, min(total, readChunk))
	for len(buf) < total {
		step := min(total-len(buf), readChunk)
		old := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(r, buf[old:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}
