package nn

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"featgraph/internal/core"
	"featgraph/internal/dgl"
	"featgraph/internal/durable"
	"featgraph/internal/faultinject"
	"featgraph/internal/graphgen"
	"featgraph/internal/tensor"
)

func trainSetup(t *testing.T, seed int64) (*graphgen.Classified, *dgl.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := graphgen.PlantedCommunities(rng, 120, 3, 8, 3, 6)
	g, err := dgl.New(ds.Adj, dgl.Config{Backend: dgl.FeatGraph, Target: core.CPU, NumThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	return ds, g
}

func newGCN(t *testing.T, g *dgl.Graph, seed int64) *GCN {
	t.Helper()
	m, err := NewGCN(g, 6, 8, 3, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCheckpointResumeBitwiseIdentical is the core resume guarantee: train
// A for 8 epochs straight; train B for 4 epochs, checkpoint, restore into
// a fresh model (fresh tensors, fresh optimizer — a new process in
// miniature), train 4 more. Parameters and losses must match bitwise.
func TestCheckpointResumeBitwiseIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.fgc")
	ds, g := trainSetup(t, 1)

	mA := newGCN(t, g, 2)
	optA := NewAdam(0.05)
	var lossA []float64
	for e := 0; e < 8; e++ {
		loss, _, err := TrainEpochCtx(context.Background(), mA, ds.Features, ds.Labels, ds.TrainMask, optA)
		if err != nil {
			t.Fatal(err)
		}
		lossA = append(lossA, loss)
	}

	mB := newGCN(t, g, 2)
	optB := NewAdam(0.05)
	for e := 0; e < 4; e++ {
		if _, _, err := TrainEpochCtx(context.Background(), mB, ds.Features, ds.Labels, ds.TrainMask, optB); err != nil {
			t.Fatal(err)
		}
	}
	if err := SaveCheckpoint(path, 4, lossA[3], mB, optB); err != nil {
		t.Fatal(err)
	}

	// "Restart": different init seed proves the checkpoint fully
	// overwrites the fresh weights.
	mC := newGCN(t, g, 99)
	optC := NewAdam(0.05)
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epoch != 4 || ck.Model != "gcn" {
		t.Fatalf("checkpoint meta %d/%q", ck.Epoch, ck.Model)
	}
	if ck.Loss != lossA[3] {
		t.Fatalf("checkpoint loss %.17g did not round-trip %.17g", ck.Loss, lossA[3])
	}
	if err := ck.Restore(mC, optC); err != nil {
		t.Fatal(err)
	}
	for e := 4; e < 8; e++ {
		loss, _, err := TrainEpochCtx(context.Background(), mC, ds.Features, ds.Labels, ds.TrainMask, optC)
		if err != nil {
			t.Fatal(err)
		}
		if loss != lossA[e] {
			t.Fatalf("epoch %d resumed loss %.17g != uninterrupted %.17g", e, loss, lossA[e])
		}
	}
	for i, p := range mA.Params() {
		q := mC.Params()[i]
		for j := range p.Data() {
			if p.Data()[j] != q.Data()[j] {
				t.Fatalf("param %d element %d diverged: %v vs %v", i, j, p.Data()[j], q.Data()[j])
			}
		}
	}
}

func TestRestoreRejectsWrongModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.fgc")
	_, g := trainSetup(t, 3)
	m := newGCN(t, g, 1)
	opt := NewAdam(0.01)
	if err := SaveCheckpoint(path, 1, 0.5, m, opt); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	sage, err := NewGraphSage(g, 6, 8, 3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Restore(sage, NewAdam(0.01)); err == nil {
		t.Fatal("restoring a gcn checkpoint into graphsage must fail")
	}
	// Same architecture, different width: shape mismatch must fail.
	wide, err := NewGCN(g, 6, 16, 3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Restore(wide, NewAdam(0.01)); err == nil {
		t.Fatal("restoring into mismatched shapes must fail")
	}
}

func TestCheckpointMissingFileIsNotCorrupt(t *testing.T) {
	_, err := LoadCheckpoint(filepath.Join(t.TempDir(), "absent.fgc"))
	if err == nil || !os.IsNotExist(err) {
		t.Fatalf("missing checkpoint should surface as not-exist, got %v", err)
	}
	if durable.IsCorrupt(err) {
		t.Fatal("missing is not corrupt")
	}
}

func TestCheckpointSaveSurvivesTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.fgc")
	ds, g := trainSetup(t, 4)
	m := newGCN(t, g, 1)
	opt := NewAdam(0.05)
	if _, _, err := TrainEpochCtx(context.Background(), m, ds.Features, ds.Labels, ds.TrainMask, opt); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(path, 1, 0.5, m, opt); err != nil {
		t.Fatal(err)
	}
	want := m.Params()[0].Clone()

	defer faultinject.Arm(faultinject.SiteDurableTornWrite, &faultinject.Fault{Kind: faultinject.Err})()
	if _, _, err := TrainEpochCtx(context.Background(), m, ds.Features, ds.Labels, ds.TrainMask, opt); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(path, 2, 0.4, m, opt); err == nil {
		t.Fatal("torn write should fail the save")
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("previous checkpoint damaged by torn write: %v", err)
	}
	if ck.Epoch != 1 {
		t.Fatalf("resumed epoch %d, want the last durable epoch 1", ck.Epoch)
	}
	if !ck.Params[0].AllClose(want, 0) {
		t.Fatal("last durable params damaged")
	}
}

// TestCorruptionMatrixCheckpointFormat runs the acceptance matrix over the
// checkpoint format.
func TestCorruptionMatrixCheckpointFormat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.fgc")
	ds, g := trainSetup(t, 5)
	m := newGCN(t, g, 1)
	opt := NewAdam(0.05)
	if _, _, err := TrainEpochCtx(context.Background(), m, ds.Features, ds.Labels, ds.TrainMask, opt); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(path, 1, 0.5, m, opt); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	err = durable.VerifyReader(blob, func(data []byte) error {
		victim := filepath.Join(dir, "victim.fgc")
		if err := os.WriteFile(victim, data, 0o644); err != nil {
			return err
		}
		_, err := LoadCheckpoint(victim)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAdamStateRoundTrip(t *testing.T) {
	params := []*tensor.Tensor{tensor.New(3, 2), tensor.New(2)}
	opt := NewAdam(0.1)
	st := opt.State(params)
	if st.T != 0 || !st.M[0].SameShape(params[0]) {
		t.Fatalf("pre-step state malformed: %+v", st)
	}
	// Mismatched shapes must be rejected.
	bad := AdamState{T: 1, M: []*tensor.Tensor{tensor.New(1), tensor.New(2)}, V: []*tensor.Tensor{tensor.New(1), tensor.New(2)}}
	if err := opt.SetState(params, bad); err == nil {
		t.Fatal("mismatched moment shapes must fail")
	}
	var perr error
	func() {
		defer func() {
			if r := recover(); r != nil {
				perr = errors.New("panicked")
			}
		}()
		st.M[0].Data()[0] = 7
		st.T = 3
		perr = opt.SetState(params, st)
	}()
	if perr != nil {
		t.Fatal(perr)
	}
	got := opt.State(params)
	if got.T != 3 || got.M[0].Data()[0] != 7 {
		t.Fatalf("state did not round-trip: %+v", got)
	}
	// Moments are copied, not aliased.
	st.M[0].Data()[0] = 100
	if opt.State(params).M[0].Data()[0] != 7 {
		t.Fatal("SetState aliased the caller's tensors")
	}
}

// TestCheckpointSaveSweepsStaleTemps: the first checkpoint save into a
// directory collects temps stranded by a crashed previous process.
func TestCheckpointSaveSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".fgtmp-crashed-ck")
	if err := os.WriteFile(stale, []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, g := trainSetup(t, 8)
	m := newGCN(t, g, 2)
	if err := SaveCheckpoint(filepath.Join(dir, "ck.fgc"), 1, 0.5, m, NewAdam(0.01)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived the first checkpoint save: %v", err)
	}
}

// TestSaveCheckpointBytesPinned pins every byte SaveCheckpoint writes for
// fixed parameters and optimizer state, so a change to the array codec or
// the container cannot silently change the on-disk checkpoint format.
func TestSaveCheckpointBytesPinned(t *testing.T) {
	_, g := trainSetup(t, 3)
	m := newGCN(t, g, 1)
	params := m.Params()
	fill := func(ts *tensor.Tensor, k int) {
		for i := range ts.Data() {
			ts.Data()[i] = float32(i*7+k)*0.125 - 2
		}
	}
	st := AdamState{T: 3, M: make([]*tensor.Tensor, len(params)), V: make([]*tensor.Tensor, len(params))}
	for i, p := range params {
		fill(p, i)
		st.M[i], st.V[i] = tensor.New(p.Shape()...), tensor.New(p.Shape()...)
		fill(st.M[i], 100+i)
		fill(st.V[i], 200+i)
	}
	params[0].Data()[0] = math.Float32frombits(0x7fc00001)
	opt := NewAdam(0.01)
	if err := opt.SetState(params, st); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.fgc")
	if err := SaveCheckpoint(path, 4, 0.625, m, opt); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got, want := hex.EncodeToString(sum[:]), "f45046df2a1b9190f4de947cc5e953e8013e99c71170da2e76c9edcf99ba0f36"; got != want {
		t.Fatalf("checkpoint bytes hash to %s, want %s", got, want)
	}
}
