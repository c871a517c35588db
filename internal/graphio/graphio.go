// Package graphio serializes graphs in a compact binary format, so
// generated benchmark datasets can be produced once (cmd/featgen) and
// reloaded across runs instead of being regenerated.
//
// A graph file is a durable section container (internal/durable) of kind
// "graph", version 2, with per-section CRC32-C checksums and sections
// header/rowptr/colidx/eid/val; shard.go adds the sharded out-of-core kind.
// Files are written atomically (temp + fsync + rename), so a crash mid-save
// leaves the previous file intact instead of a truncated hybrid, and any
// corruption surfaces as a typed *durable.CorruptError — never a panic,
// never silently wrong data. Any other bytes, including the unchecksummed
// v1 layout that predates the container, fail the container's magic check.
package graphio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"featgraph/internal/durable"
	"featgraph/internal/sparse"
)

const (
	graphKind    = "graph"
	graphVersion = 2
	// maxDim bounds declared dimensions and edge counts.
	maxDim = 1 << 30
)

// LimitError reports a graph whose counts exceed what a format can
// represent. Writers return it instead of narrowing counts through
// fixed-width casts: the v2 graph header stores u32 counts (and
// readers reject anything past maxDim), so a count past the limit used to
// truncate silently — exactly the failure mode that corrupts the large
// graphs the out-of-core shard format exists to serve.
type LimitError struct {
	Kind  string // "graph" or "gshard"
	Field string // which count exceeded the limit
	Value int64
	Max   int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("graphio: %s %s %d exceeds the format limit %d", e.Kind, e.Field, e.Value, e.Max)
}

// graphLimits validates a graph's counts against the v2 container format's
// representable range before any header byte is written.
func graphLimits(numRows, numCols, nnz int) error {
	for _, c := range []struct {
		field string
		v     int64
	}{{"rows", int64(numRows)}, {"cols", int64(numCols)}, {"nnz", int64(nnz)}} {
		if c.v > maxDim {
			return &LimitError{Kind: graphKind, Field: c.field, Value: c.v, Max: maxDim}
		}
	}
	return nil
}

// WriteGraph serializes a CSR matrix in the current container format.
// Counts past the format's limit fail with a typed *LimitError instead of
// silently truncating through the header's u32 fields.
func WriteGraph(w io.Writer, g *sparse.CSR) error {
	if err := graphLimits(g.NumRows, g.NumCols, g.NNZ()); err != nil {
		return err
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("graphio: refusing to write invalid graph: %w", err)
	}
	bw := bufio.NewWriter(w)
	dw, err := durable.NewWriter(bw, graphKind, graphVersion, 5)
	if err != nil {
		return err
	}
	hdr := make([]byte, 0, 12)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(g.NumRows))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(g.NumCols))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(g.NNZ()))
	if err := dw.Section("header", hdr); err != nil {
		return err
	}
	for _, s := range []struct {
		name string
		arr  []int32
	}{{"rowptr", g.RowPtr}, {"colidx", g.ColIdx}, {"eid", g.EID}} {
		if err := dw.Stream(s.name, 4*int64(len(s.arr)), streamInt32s(s.arr)); err != nil {
			return err
		}
	}
	if err := dw.Stream("val", 4*int64(len(g.Val)), streamFloat32s(g.Val)); err != nil {
		return err
	}
	if err := dw.Close(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadGraph deserializes a CSR matrix, validating structure. Corruption
// yields a typed *durable.CorruptError.
func ReadGraph(r io.Reader) (*sparse.CSR, error) {
	dr, err := durable.OpenReader(bufio.NewReader(r), "", graphKind, graphVersion)
	if err != nil {
		return nil, err
	}
	sections, err := dr.ReadAll()
	if err != nil {
		return nil, err
	}
	hdr := sections["header"]
	if len(hdr) != 12 {
		return nil, corruptf(graphKind, "header", fmt.Sprintf("header is %d bytes, want 12", len(hdr)), nil)
	}
	numRows := int(binary.LittleEndian.Uint32(hdr[0:4]))
	numCols := int(binary.LittleEndian.Uint32(hdr[4:8]))
	nnz := int(binary.LittleEndian.Uint32(hdr[8:12]))
	if numRows > maxDim || numCols > maxDim || nnz > maxDim {
		return nil, corruptf(graphKind, "header", fmt.Sprintf("implausible header %d/%d/%d", numRows, numCols, nnz), nil)
	}
	g := &sparse.CSR{NumRows: numRows, NumCols: numCols}
	for _, s := range []struct {
		name string
		dst  *[]int32
		want int
	}{{"rowptr", &g.RowPtr, numRows + 1}, {"colidx", &g.ColIdx, nnz}, {"eid", &g.EID, nnz}} {
		arr, err := decodeInt32s(sections[s.name], s.want, s.name)
		if err != nil {
			return nil, err
		}
		*s.dst = arr
	}
	val, err := decodeFloat32s(sections["val"], nnz, "val")
	if err != nil {
		return nil, err
	}
	g.Val = val
	if err := g.Validate(); err != nil {
		return nil, corruptf(graphKind, "", "structural validation failed", err)
	}
	return g, nil
}

// SaveGraph durably writes a graph to a file: a crash mid-save leaves any
// previous file intact.
func SaveGraph(path string, g *sparse.CSR) error {
	durable.SweepTempsOnce(filepath.Dir(path))
	return durable.AtomicWriteFile(path, func(w io.Writer) error {
		return WriteGraph(w, g)
	})
}

// LoadGraph reads a graph from a file.
func LoadGraph(path string) (*sparse.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := ReadGraph(f)
	return g, withPath(err, path)
}

// withPath stamps the file path onto typed errors from the stream readers,
// which cannot know it.
func withPath(err error, path string) error {
	var ce *durable.CorruptError
	if errors.As(err, &ce) && ce.Path == "" {
		ce.Path = path
	}
	var ve *durable.VersionError
	if errors.As(err, &ve) && ve.Path == "" {
		ve.Path = path
	}
	return err
}

func corruptf(kind, section, reason string, err error) error {
	return durable.NewCorruptError("", kind, section, reason, err)
}

// ioChunk bounds scratch buffers for array (de)serialization.
const ioChunk = 1 << 16

func streamInt32s(arr []int32) func(io.Writer) error {
	return func(w io.Writer) error {
		buf := make([]byte, 0, min(4*len(arr), ioChunk))
		for _, v := range arr {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			if len(buf) == cap(buf) {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
		if len(buf) > 0 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return nil
	}
}

func streamFloat32s(arr []float32) func(io.Writer) error {
	return func(w io.Writer) error {
		buf := make([]byte, 0, min(4*len(arr), ioChunk))
		for _, v := range arr {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
			if len(buf) == cap(buf) {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
		if len(buf) > 0 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return nil
	}
}

// decodeInt32s converts a checksummed section payload into an int32 array,
// validating the byte count against the expected element count.
func decodeInt32s(payload []byte, want int, section string) ([]int32, error) {
	if len(payload) != 4*want {
		return nil, corruptf(graphKind, section,
			fmt.Sprintf("section is %d bytes, want %d elements (%d bytes)", len(payload), want, 4*want), nil)
	}
	arr := make([]int32, want)
	for i := range arr {
		arr[i] = int32(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return arr, nil
}

func decodeFloat32s(payload []byte, want int, section string) ([]float32, error) {
	if len(payload) != 4*want {
		return nil, corruptf(graphKind, section,
			fmt.Sprintf("section is %d bytes, want %d elements (%d bytes)", len(payload), want, 4*want), nil)
	}
	arr := make([]float32, want)
	for i := range arr {
		arr[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return arr, nil
}
