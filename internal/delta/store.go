package delta

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"featgraph/internal/durable"
	"featgraph/internal/sparse"
)

// The durable base is one FGDC container holding the fully compacted CSR
// of some version. Edge ids are not stored: every materialized version is
// canonical (row-major eids), so they are regenerated on load.
const (
	baseKind    = "deltabase"
	baseVersion = 1
)

type baseMeta struct {
	Version     uint64 `json:"version"`
	NumVertices int    `json:"num_vertices"`
	NumEdges    int    `json:"num_edges"`
}

// saveBase durably replaces path with the CSR at version ver, via the
// atomic temp+fsync+rename protocol (and its fault sites).
func saveBase(path string, c *sparse.CSR, ver uint64) error {
	meta, err := json.Marshal(baseMeta{Version: ver, NumVertices: c.NumRows, NumEdges: c.NNZ()})
	if err != nil {
		return fmt.Errorf("delta: encoding base meta: %w", err)
	}
	return durable.AtomicWriteFile(path, func(w io.Writer) error {
		wr, err := durable.NewWriter(w, baseKind, baseVersion, 4)
		if err != nil {
			return err
		}
		if err := wr.Section("meta", meta); err != nil {
			return err
		}
		if err := wr.Stream("rowptr", 4*int64(len(c.RowPtr)), durable.StreamInt32s(c.RowPtr)); err != nil {
			return err
		}
		if err := wr.Stream("colidx", 4*int64(len(c.ColIdx)), durable.StreamInt32s(c.ColIdx)); err != nil {
			return err
		}
		if err := wr.Stream("val", 4*int64(len(c.Val)), durable.StreamFloat32s(c.Val)); err != nil {
			return err
		}
		return wr.Close()
	})
}

// loadBase reads the durable base back, regenerating row-major edge ids
// and validating the topology. Damage yields *durable.CorruptError.
func loadBase(path string) (*sparse.CSR, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("delta: opening base: %w", err)
	}
	defer f.Close()
	rd, err := durable.OpenReader(f, path, baseKind, baseVersion)
	if err != nil {
		return nil, 0, err
	}
	secs, err := rd.ReadAll()
	if err != nil {
		return nil, 0, err
	}
	var meta baseMeta
	if err := json.Unmarshal(secs["meta"], &meta); err != nil {
		return nil, 0, durable.NewCorruptError(path, baseKind, "meta", "undecodable meta", err)
	}
	if meta.NumVertices < 0 || meta.NumEdges < 0 {
		return nil, 0, durable.NewCorruptError(path, baseKind, "meta", "negative counts", nil)
	}
	rowptr, err := durable.DecodeInt32s(secs["rowptr"], meta.NumVertices+1)
	if err != nil {
		return nil, 0, durable.NewCorruptError(path, baseKind, "rowptr", err.Error(), nil)
	}
	colidx, err := durable.DecodeInt32s(secs["colidx"], meta.NumEdges)
	if err != nil {
		return nil, 0, durable.NewCorruptError(path, baseKind, "colidx", err.Error(), nil)
	}
	val, err := durable.DecodeFloat32s(secs["val"], meta.NumEdges)
	if err != nil {
		return nil, 0, durable.NewCorruptError(path, baseKind, "val", err.Error(), nil)
	}
	eid := make([]int32, meta.NumEdges)
	for i := range eid {
		eid[i] = int32(i)
	}
	c := &sparse.CSR{
		NumRows: meta.NumVertices,
		NumCols: meta.NumVertices,
		RowPtr:  rowptr,
		ColIdx:  colidx,
		EID:     eid,
		Val:     val,
	}
	if err := c.Validate(); err != nil {
		return nil, 0, durable.NewCorruptError(path, baseKind, "", "invalid topology", err)
	}
	return c, meta.Version, nil
}
