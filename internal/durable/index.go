// Random-access container reading. The streaming Reader consumes a
// container front to back, which is right for formats whose every section
// is needed at load. The out-of-core shard format (internal/graphio) needs
// the opposite: open cheaply, then read individual shard payloads on
// demand through mmap or pread. ReadIndex provides the bridge — it parses
// the header and every section header (verifying their CRCs), records
// where each payload lives, and seeks past the payload bytes without
// touching them. Payload CRC verification is deferred to whoever reads the
// payload, via SectionLoc.CRC.
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// SectionLoc locates one section's payload inside a container, for readers
// that access payloads out of order. CRC is the stored payload checksum;
// the payload bytes themselves have not been verified (or even read) by
// ReadIndex, so consumers must check crc32.Checksum(payload, Castagnoli)
// against it before trusting the data.
type SectionLoc struct {
	Name string
	Off  int64  // payload offset from the start of the container
	Len  int64  // payload length in bytes
	CRC  uint32 // stored CRC32-C of the payload
}

// ReadIndex parses a container's header and section headers from r,
// returning the kind-version and the location of every section payload.
// Structural damage — bad magic, checksum-mismatched headers, truncation
// before the final section's trailing checksum — yields a *CorruptError; a
// newer container or kind version yields a *VersionError. Payload contents
// are not validated: a payload whose bytes were damaged indexes cleanly
// and fails only when its consumer checks SectionLoc.CRC.
func ReadIndex(r io.ReadSeeker, path, kind string, maxVersion uint16) (uint16, []SectionLoc, error) {
	var fixed [7]byte // magic + containerVersion + kindLen
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return 0, nil, corrupt(path, kind, "", "short header", err)
	}
	if [4]byte(fixed[0:4]) != magic {
		return 0, nil, corrupt(path, kind, "", fmt.Sprintf("bad magic %q", fixed[0:4]), nil)
	}
	if cv := binary.LittleEndian.Uint16(fixed[4:6]); cv != ContainerVersion {
		return 0, nil, &VersionError{Path: path, Kind: kind, Got: cv, Want: ContainerVersion}
	}
	kindLen := int(fixed[6])
	rest := make([]byte, kindLen+10) // kind + kindVersion u16 + count u32 + crc u32
	if _, err := io.ReadFull(r, rest); err != nil {
		return 0, nil, corrupt(path, kind, "", "short header", err)
	}
	hdr := append(append([]byte{}, fixed[:]...), rest[:kindLen+6]...)
	if crc32.Checksum(hdr, crcTable) != binary.LittleEndian.Uint32(rest[kindLen+6:]) {
		return 0, nil, corrupt(path, kind, "", "header checksum mismatch", nil)
	}
	if gotKind := string(rest[:kindLen]); gotKind != kind {
		return 0, nil, corrupt(path, kind, "", fmt.Sprintf("container holds %q, want %q", gotKind, kind), nil)
	}
	version := binary.LittleEndian.Uint16(rest[kindLen : kindLen+2])
	if version > maxVersion {
		return 0, nil, &VersionError{Path: path, Kind: kind, Got: version, Want: maxVersion}
	}
	count := binary.LittleEndian.Uint32(rest[kindLen+2 : kindLen+6])
	if count > maxSections {
		return 0, nil, corrupt(path, kind, "", fmt.Sprintf("implausible section count %d", count), nil)
	}

	// off tracks the absolute position as header bytes are consumed; seeks
	// are relative (io.SeekCurrent), so a section-reader source positioned
	// at the container start works as well as a whole file.
	off := int64(len(fixed) + len(rest))
	locs := make([]SectionLoc, 0, count)
	for s := uint32(0); s < count; s++ {
		var nameLen [1]byte
		if _, err := io.ReadFull(r, nameLen[:]); err != nil {
			return 0, nil, corrupt(path, kind, "", "short section header", err)
		}
		shdr := make([]byte, 1+int(nameLen[0])+8)
		shdr[0] = nameLen[0]
		if _, err := io.ReadFull(r, shdr[1:]); err != nil {
			return 0, nil, corrupt(path, kind, "", "short section header", err)
		}
		var shdrCRC [4]byte
		if _, err := io.ReadFull(r, shdrCRC[:]); err != nil {
			return 0, nil, corrupt(path, kind, "", "short section header", err)
		}
		if crc32.Checksum(shdr, crcTable) != binary.LittleEndian.Uint32(shdrCRC[:]) {
			return 0, nil, corrupt(path, kind, "", "section header checksum mismatch", nil)
		}
		name := string(shdr[1 : 1+nameLen[0]])
		size := binary.LittleEndian.Uint64(shdr[1+nameLen[0]:])
		if size > maxSectionLen {
			return 0, nil, corrupt(path, kind, name, fmt.Sprintf("implausible section length %d", size), nil)
		}
		off += int64(len(shdr)) + 4
		locs = append(locs, SectionLoc{Name: name, Off: off, Len: int64(size)})

		// Skip the payload, then read the trailing checksum. Seeking past
		// EOF does not itself error, so truncation inside the payload is
		// caught here by the checksum read coming up short — and the
		// payload read itself is re-verified by the consumer's CRC check.
		if _, err := r.Seek(int64(size), io.SeekCurrent); err != nil {
			return 0, nil, corrupt(path, kind, name, "seek past payload failed", err)
		}
		var crc [4]byte
		if _, err := io.ReadFull(r, crc[:]); err != nil {
			return 0, nil, corrupt(path, kind, name, "missing payload checksum", err)
		}
		locs[len(locs)-1].CRC = binary.LittleEndian.Uint32(crc[:])
		off += int64(size) + 4
	}
	return version, locs, nil
}

// VerifyPayload checks payload bytes against the checksum recorded in the
// index, returning a *CorruptError on mismatch.
func (l SectionLoc) VerifyPayload(payload []byte, path, kind string) error {
	if int64(len(payload)) != l.Len {
		return corrupt(path, kind, l.Name, fmt.Sprintf("payload is %d bytes, index says %d", len(payload), l.Len), nil)
	}
	if crc32.Checksum(payload, crcTable) != l.CRC {
		return corrupt(path, kind, l.Name, "payload checksum mismatch", nil)
	}
	return nil
}
