package durable

import (
	"bytes"
	"errors"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
)

// buildBlob writes a small three-section container used across the tests.
func buildBlob(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "test", 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Section("meta", []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := w.Section("empty", []byte{}); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 1000)
	if err := w.Stream("bulk", int64(len(payload)), func(sw io.Writer) error {
		_, err := sw.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	blob := buildBlob(t)
	r, err := OpenReader(bytes.NewReader(blob), "mem", "test", 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != 3 || r.Sections() != 3 {
		t.Fatalf("version=%d sections=%d, want 3/3", r.Version(), r.Sections())
	}
	sections, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sections["meta"], []byte{1, 2, 3, 4}) {
		t.Fatalf("meta = %v", sections["meta"])
	}
	if len(sections["empty"]) != 0 {
		t.Fatalf("empty section has %d bytes", len(sections["empty"]))
	}
	if len(sections["bulk"]) != 1000 || sections["bulk"][999] != 0xAB {
		t.Fatalf("bulk section mangled")
	}
}

func TestNextOrderAndEOF(t *testing.T) {
	blob := buildBlob(t)
	r, err := OpenReader(bytes.NewReader(blob), "mem", "test", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"meta", "empty", "bulk"}
	for _, name := range want {
		got, _, err := r.Next()
		if err != nil || got != name {
			t.Fatalf("Next = %q, %v; want %q", got, err, name)
		}
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next after last section = %v, want io.EOF", err)
	}
}

func TestKindMismatchIsCorrupt(t *testing.T) {
	blob := buildBlob(t)
	_, err := OpenReader(bytes.NewReader(blob), "mem", "other", 3)
	if !IsCorrupt(err) {
		t.Fatalf("kind mismatch gave %v, want CorruptError", err)
	}
	if !strings.Contains(err.Error(), `"test"`) {
		t.Fatalf("error should name the actual kind: %v", err)
	}
}

func TestFutureVersionIsVersionError(t *testing.T) {
	blob := buildBlob(t) // kind version 3
	_, err := OpenReader(bytes.NewReader(blob), "mem", "test", 2)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("future version gave %v, want VersionError", err)
	}
	if ve.Got != 3 || ve.Want != 2 {
		t.Fatalf("VersionError got=%d want=%d", ve.Got, ve.Want)
	}
	if IsCorrupt(err) {
		t.Fatal("a future version is not corruption")
	}
}

func TestWriterSectionCountEnforced(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "test", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Section("a", nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close with a missing section should fail")
	}
	if err := w.Section("b", nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Section("c", nil); err == nil {
		t.Fatal("writing past the declared count should fail")
	}
}

func TestStreamSizeMismatchFails(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "test", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Stream("short", 10, func(sw io.Writer) error {
		_, err := sw.Write([]byte{1, 2, 3})
		return err
	})
	if err == nil {
		t.Fatal("Stream writing fewer bytes than declared should fail")
	}
}

func TestDuplicateSectionIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "test", 1, 2)
	w.Section("dup", []byte{1})
	w.Section("dup", []byte{2})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(bytes.NewReader(buf.Bytes()), "mem", "test", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAll(); !IsCorrupt(err) {
		t.Fatalf("duplicate section gave %v, want CorruptError", err)
	}
}

// TestCorruptionMatrixContainer proves the container reader itself meets
// the durability contract: every truncation and bit flip yields a typed
// error, never a panic or a silent success.
func TestCorruptionMatrixContainer(t *testing.T) {
	blob := buildBlob(t)
	err := VerifyReader(blob, func(data []byte) error {
		r, err := OpenReader(bytes.NewReader(data), "mem", "test", 3)
		if err != nil {
			return err
		}
		_, err = r.ReadAll()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVerifyReaderCatchesBadReaders exercises the harness itself: a reader
// that ignores damage, or panics, must be reported.
func TestVerifyReaderCatchesBadReaders(t *testing.T) {
	blob := buildBlob(t)
	if err := VerifyReader(blob, func([]byte) error { return nil }); err == nil {
		t.Fatal("an accept-everything reader must fail verification")
	}
	calls := 0
	err := VerifyReader(blob, func(data []byte) error {
		calls++
		if calls == 1 {
			return nil // pristine blob
		}
		panic("boom")
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("a panicking reader must be reported, got %v", err)
	}
	err = VerifyReader(blob, func(data []byte) error {
		if len(data) == len(blob) {
			// Pristine and bit-flipped blobs: pretend flips are fine.
			return nil
		}
		return errors.New("untyped")
	})
	if err == nil {
		t.Fatal("untyped errors and accepted bit flips must be reported")
	}
}

// The array codec round-trips every bit, across the encoder's chunk
// boundary, and the decoders refuse a payload whose length disagrees with
// the element count, one whose 4*n would overflow included.
func TestArrayCodec(t *testing.T) {
	ints := make([]int32, streamChunk/4+3)
	floats := make([]float32, len(ints))
	for i := range ints {
		ints[i] = int32(i*2654435761) - 7
		floats[i] = math.Float32frombits(uint32(ints[i]))
	}
	var ib, fb bytes.Buffer
	if err := StreamInt32s(ints)(&ib); err != nil {
		t.Fatal(err)
	}
	if err := StreamFloat32s(floats)(&fb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ib.Bytes(), fb.Bytes()) || ib.Len() != 4*len(ints) {
		t.Fatalf("encoders wrote %d and %d bytes for the same bits, want %d of each", ib.Len(), fb.Len(), 4*len(ints))
	}
	gotI, err := DecodeInt32s(ib.Bytes(), len(ints))
	if err != nil || !slices.Equal(gotI, ints) {
		t.Fatalf("int32 round trip: %v", err)
	}
	gotF, err := DecodeFloat32s(fb.Bytes(), len(floats))
	if err != nil {
		t.Fatal(err)
	}
	for i := range gotF {
		if math.Float32bits(gotF[i]) != math.Float32bits(floats[i]) {
			t.Fatalf("float32 %d decoded as %#x, want %#x", i, math.Float32bits(gotF[i]), math.Float32bits(floats[i]))
		}
	}
	for _, tc := range []struct {
		payload []byte
		n       int
	}{
		{ib.Bytes(), len(ints) - 1},
		{ib.Bytes()[:ib.Len()-1], len(ints)},
		{nil, -1},
		{nil, 1 << 62},
		{[]byte{1, 2, 3, 4}, 1 + 1<<62},
	} {
		if _, err := DecodeInt32s(tc.payload, tc.n); err == nil {
			t.Errorf("DecodeInt32s accepted %d bytes as %d elements", len(tc.payload), tc.n)
		}
		if _, err := DecodeFloat32s(tc.payload, tc.n); err == nil {
			t.Errorf("DecodeFloat32s accepted %d bytes as %d elements", len(tc.payload), tc.n)
		}
	}
}
