package durable

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The array codec of every container kind: int32 and float32 arrays are
// stored as little-endian 4-byte elements, written through Writer.Stream by
// StreamInt32s/StreamFloat32s and read back from a section payload by
// DecodeInt32s/DecodeFloat32s.

// streamChunk bounds an encoder's scratch buffer.
const streamChunk = 1 << 16

// StreamInt32s returns a Writer.Stream body that writes arr little-endian,
// in chunks of at most 64 KiB.
func StreamInt32s(arr []int32) func(io.Writer) error {
	return func(w io.Writer) error {
		buf := make([]byte, 0, min(4*len(arr), streamChunk))
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
			_, err := w.Write(buf)
			return err
		}
		return nil
	}
}

// StreamFloat32s is StreamInt32s for float32 arrays: each element's bits,
// so NaN payloads and negative zero round-trip.
func StreamFloat32s(arr []float32) func(io.Writer) error {
	return func(w io.Writer) error {
		buf := make([]byte, 0, min(4*len(arr), streamChunk))
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
			_, err := w.Write(buf)
			return err
		}
		return nil
	}
}

// DecodeInt32s decodes a payload of exactly n little-endian int32s. A
// payload of any other length fails, naming both lengths; the caller
// reports that as damage to its section.
func DecodeInt32s(payload []byte, n int) ([]int32, error) {
	if err := checkArrayLen(payload, n); err != nil {
		return nil, err
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return out, nil
}

// DecodeFloat32s is DecodeInt32s for float32 arrays, by raw bits.
func DecodeFloat32s(payload []byte, n int) ([]float32, error) {
	if err := checkArrayLen(payload, n); err != nil {
		return nil, err
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return out, nil
}

func checkArrayLen(payload []byte, n int) error {
	if len(payload)%4 != 0 || len(payload)/4 != n {
		return fmt.Errorf("section is %d bytes, want %d 4-byte elements", len(payload), n)
	}
	return nil
}
