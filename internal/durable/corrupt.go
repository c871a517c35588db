package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Corruption harness. Given one well-formed container blob, CorruptionVariants
// derives the systematic damage set the acceptance matrix requires —
// truncation at every structural boundary and a bit flip inside every
// region — and VerifyReader asserts a reader survives all of them with a
// typed error: never a panic, never a silent success. Format owners
// (graphio, planstore, nn checkpoints) run their readers through it so the
// guarantee holds for every on-disk format, not just this package's tests.

// Variant is one systematically damaged copy of a container blob.
type Variant struct {
	Name string
	Data []byte
}

// region is a named byte range of the parsed container.
type region struct {
	name       string
	start, end int
}

// parseRegions maps a well-formed blob into its structural regions.
func parseRegions(blob []byte) ([]region, error) {
	if len(blob) < 7 || [4]byte(blob[0:4]) != magic {
		return nil, fmt.Errorf("durable: blob is not a container")
	}
	kindLen := int(blob[6])
	hdrEnd := 7 + kindLen + 10
	if len(blob) < hdrEnd {
		return nil, fmt.Errorf("durable: blob shorter than its header")
	}
	regions := []region{{"header", 0, hdrEnd}}
	count := int(binary.LittleEndian.Uint32(blob[7+kindLen+2 : 7+kindLen+6]))
	off := hdrEnd
	for s := 0; s < count; s++ {
		if off >= len(blob) {
			return nil, fmt.Errorf("durable: blob truncated at section %d", s)
		}
		nameLen := int(blob[off])
		name := string(blob[off+1 : off+1+nameLen])
		shdrEnd := off + 1 + nameLen + 8 + 4
		size := int(binary.LittleEndian.Uint64(blob[off+1+nameLen : off+1+nameLen+8]))
		payloadEnd := shdrEnd + size
		crcEnd := payloadEnd + 4
		if crcEnd > len(blob) {
			return nil, fmt.Errorf("durable: blob truncated inside section %q", name)
		}
		regions = append(regions,
			region{name + ".hdr", off, shdrEnd},
			region{name + ".payload", shdrEnd, payloadEnd},
			region{name + ".crc", payloadEnd, crcEnd},
		)
		off = crcEnd
	}
	if off != len(blob) {
		return nil, fmt.Errorf("durable: %d trailing bytes after last section", len(blob)-off)
	}
	return regions, nil
}

// CorruptionVariants returns systematic corruptions of a well-formed
// container blob: the empty file, truncation at and inside every structural
// boundary, and a single bit flip in the middle of every region (header,
// each section's header, payload, and checksum).
func CorruptionVariants(blob []byte) ([]Variant, error) {
	regions, err := parseRegions(blob)
	if err != nil {
		return nil, err
	}
	var out []Variant
	out = append(out, Variant{"empty", []byte{}})
	for _, rg := range regions {
		// Truncate at the region's start and mid-region. Truncating at the
		// final region's end would reproduce the intact file, so region
		// ends are covered as the next region's start (and by mid-region
		// cuts for the tail).
		if rg.start > 0 {
			out = append(out, Variant{"truncate-at-" + rg.name, clone(blob[:rg.start])})
		}
		if mid := (rg.start + rg.end) / 2; mid > 0 && mid < len(blob) && mid > rg.start {
			out = append(out, Variant{"truncate-inside-" + rg.name, clone(blob[:mid])})
		}
		if rg.end > rg.start {
			flip := clone(blob)
			flip[(rg.start+rg.end)/2] ^= 0x10
			out = append(out, Variant{"bitflip-" + rg.name, flip})
		}
	}
	return out, nil
}

func clone(b []byte) []byte { return append([]byte{}, b...) }

// VerifyReader runs read against every corruption variant of blob and
// reports the first violation of the durability contract: a panic, a nil
// error (silently accepted damage), or an error that is neither
// *CorruptError nor *VersionError. It first checks that the pristine blob
// reads cleanly. A nil return means the reader degrades correctly under
// every variant.
func VerifyReader(blob []byte, read func([]byte) error) error {
	if err := read(clone(blob)); err != nil {
		return fmt.Errorf("pristine blob failed to read: %w", err)
	}
	variants, err := CorruptionVariants(blob)
	if err != nil {
		return err
	}
	for _, v := range variants {
		if err := checkVariant(v, read); err != nil {
			return err
		}
	}
	return nil
}

func checkVariant(v Variant, read func([]byte) error) (violation error) {
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				violation = fmt.Errorf("variant %s: reader panicked: %v", v.Name, r)
			}
		}()
		err = read(v.Data)
	}()
	if violation != nil {
		return violation
	}
	if err == nil {
		return fmt.Errorf("variant %s: reader accepted corrupt data", v.Name)
	}
	var ce *CorruptError
	var ve *VersionError
	if !errors.As(err, &ce) && !errors.As(err, &ve) {
		return fmt.Errorf("variant %s: untyped error %T: %v", v.Name, err, err)
	}
	return nil
}
