// Checkpoint/resume: training state made durable. A checkpoint captures
// everything an epoch boundary needs to continue bitwise-identically —
// the model parameters and the full Adam state (step counter, first and
// second moments) — in a durable container written atomically, so a
// SIGKILL at any instant leaves the last complete epoch on disk. Float32
// payloads round-trip by raw bits, which is what makes a resumed run's
// forward results literally identical to an uninterrupted one, not merely
// close.

package nn

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"featgraph/internal/durable"
	"featgraph/internal/tensor"
)

const (
	ckptKind    = "ckpt"
	ckptVersion = 1
	// maxCkptDim bounds declared tensor dimensions in checkpoint sections.
	maxCkptDim = 1 << 30
)

// Checkpoint is the loaded form of a training snapshot.
type Checkpoint struct {
	// Epoch is the number of completed epochs (training resumes at
	// Epoch, zero-based).
	Epoch int
	// Model is the architecture name the snapshot came from.
	Model string
	// Params are the parameter tensors, in Model.Params() order.
	Params []*tensor.Tensor
	// Opt is the optimizer state parallel to Params.
	Opt AdamState
	// Loss is the training loss of the last completed epoch, preserved
	// bitwise so a resumed run reports the same number.
	Loss float64
}

type ckptMeta struct {
	Epoch  int    `json:"epoch"`
	Model  string `json:"model"`
	Params int    `json:"params"`
	AdamT  int    `json:"adam_t"`
	// LossBits is the float64 bit pattern of the last epoch's loss; raw
	// bits survive JSON (which cannot encode NaN) and round-trip exactly.
	LossBits uint64 `json:"loss_bits"`
}

// SaveCheckpoint atomically writes a snapshot of m and opt after epoch
// completed epochs, whose training loss was loss. A crash during the
// save leaves the previous checkpoint intact.
func SaveCheckpoint(path string, epoch int, loss float64, m Model, opt *Adam) error {
	params := m.Params()
	st := opt.State(params)
	meta, err := json.Marshal(ckptMeta{
		Epoch: epoch, Model: m.Name(), Params: len(params), AdamT: st.T,
		LossBits: math.Float64bits(loss),
	})
	if err != nil {
		return err
	}
	// First save into a directory clears temps stranded by a crash there.
	durable.SweepTempsOnce(filepath.Dir(path))
	return durable.AtomicWriteFile(path, func(w io.Writer) error {
		dw, err := durable.NewWriter(w, ckptKind, ckptVersion, 1+3*len(params))
		if err != nil {
			return err
		}
		if err := dw.Section("meta", meta); err != nil {
			return err
		}
		for i, p := range params {
			if err := writeTensorSection(dw, fmt.Sprintf("param.%d", i), p); err != nil {
				return err
			}
			if err := writeTensorSection(dw, fmt.Sprintf("adam.m.%d", i), st.M[i]); err != nil {
				return err
			}
			if err := writeTensorSection(dw, fmt.Sprintf("adam.v.%d", i), st.V[i]); err != nil {
				return err
			}
		}
		return dw.Close()
	})
}

// LoadCheckpoint reads a snapshot. Damage yields a typed
// *durable.CorruptError (or *durable.VersionError for future formats);
// callers distinguish both from a missing file via os.IsNotExist.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dr, err := durable.OpenReader(f, path, ckptKind, ckptVersion)
	if err != nil {
		return nil, err
	}
	sections, err := dr.ReadAll()
	if err != nil {
		return nil, err
	}
	var meta ckptMeta
	if err := json.Unmarshal(sections["meta"], &meta); err != nil {
		return nil, durable.NewCorruptError(path, ckptKind, "meta", "undecodable meta", err)
	}
	if meta.Epoch < 0 || meta.Params < 0 || meta.Params > 1<<16 {
		return nil, durable.NewCorruptError(path, ckptKind, "meta",
			fmt.Sprintf("implausible meta epoch=%d params=%d", meta.Epoch, meta.Params), nil)
	}
	ck := &Checkpoint{
		Epoch:  meta.Epoch,
		Model:  meta.Model,
		Params: make([]*tensor.Tensor, meta.Params),
		Opt:    AdamState{T: meta.AdamT, M: make([]*tensor.Tensor, meta.Params), V: make([]*tensor.Tensor, meta.Params)},
		Loss:   math.Float64frombits(meta.LossBits),
	}
	for i := 0; i < meta.Params; i++ {
		for _, s := range []struct {
			name string
			dst  *[]*tensor.Tensor
		}{
			{fmt.Sprintf("param.%d", i), &ck.Params},
			{fmt.Sprintf("adam.m.%d", i), &ck.Opt.M},
			{fmt.Sprintf("adam.v.%d", i), &ck.Opt.V},
		} {
			t, err := decodeTensorSection(path, s.name, sections[s.name])
			if err != nil {
				return nil, err
			}
			(*s.dst)[i] = t
		}
	}
	return ck, nil
}

// Restore copies the checkpointed parameters and optimizer state into m
// and opt. The model architecture and every parameter shape must match;
// resuming a GCN checkpoint into a GAT is corruption of intent, not of
// bytes, and fails loudly.
func (ck *Checkpoint) Restore(m Model, opt *Adam) error {
	if m.Name() != ck.Model {
		return fmt.Errorf("nn: checkpoint is for model %q, cannot restore into %q", ck.Model, m.Name())
	}
	params := m.Params()
	if len(params) != len(ck.Params) {
		return fmt.Errorf("nn: checkpoint has %d params, model has %d", len(ck.Params), len(params))
	}
	for i, p := range params {
		if !p.SameShape(ck.Params[i]) {
			return fmt.Errorf("nn: checkpoint param %d shape %v does not match model shape %v",
				i, ck.Params[i].Shape(), p.Shape())
		}
	}
	for i, p := range params {
		copy(p.Data(), ck.Params[i].Data())
	}
	return opt.SetState(params, ck.Opt)
}

// writeTensorSection streams a tensor as rank u32 | dims u32... | f32 bits.
func writeTensorSection(dw *durable.Writer, name string, t *tensor.Tensor) error {
	shape := t.Shape()
	size := int64(4*(1+len(shape)) + 4*t.Len())
	return dw.Stream(name, size, func(w io.Writer) error {
		hdr := make([]byte, 0, 4*(1+len(shape)))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(shape)))
		for _, d := range shape {
			hdr = binary.LittleEndian.AppendUint32(hdr, uint32(d))
		}
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		return durable.StreamFloat32s(t.Data())(w)
	})
}

func decodeTensorSection(path, name string, payload []byte) (*tensor.Tensor, error) {
	if len(payload) < 4 || len(payload)%4 != 0 {
		return nil, durable.NewCorruptError(path, ckptKind, name,
			fmt.Sprintf("tensor section is %d bytes", len(payload)), nil)
	}
	rank := int(binary.LittleEndian.Uint32(payload[0:4]))
	if rank < 0 || rank > 8 || len(payload) < 4*(1+rank) {
		return nil, durable.NewCorruptError(path, ckptKind, name, fmt.Sprintf("implausible rank %d", rank), nil)
	}
	shape := make([]int, rank)
	total := 1
	for i := range shape {
		d := int(binary.LittleEndian.Uint32(payload[4*(1+i):]))
		if d > maxCkptDim || (total > 0 && d > math.MaxInt32/max(total, 1)) {
			return nil, durable.NewCorruptError(path, ckptKind, name, fmt.Sprintf("implausible dimension %d", d), nil)
		}
		shape[i] = d
		total *= d
	}
	out, err := durable.DecodeFloat32s(payload[4*(1+rank):], total)
	if err != nil {
		return nil, durable.NewCorruptError(path, ckptKind, name, fmt.Sprintf("tensor of shape %v: %v", shape, err), nil)
	}
	return tensor.FromSlice(out, shape...), nil
}
