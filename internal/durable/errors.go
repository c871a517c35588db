package durable

import (
	"errors"
	"fmt"

	"featgraph/internal/telemetry"
)

// mCorruptReads counts reads that detected damage — a bad magic, a CRC
// mismatch, a truncated section, an implausible header. Every constructed
// CorruptError increments it, so the counter is the process-wide answer to
// "is anything on disk rotting".
var mCorruptReads = telemetry.NewCounter("featgraph_durable_corrupt_reads_total", "",
	"Durable-format reads that detected corruption (bad magic, CRC mismatch, truncation).")

// CorruptError reports that durable on-disk state is damaged: present but
// structurally broken, checksum-mismatched, or truncated. It is the typed
// boundary every reader in this repository promises — callers can always
// distinguish "file missing" (fs errors), "file from the future"
// (*VersionError), and "file damaged" (*CorruptError), and choose to
// rebuild instead of crash.
type CorruptError struct {
	Path    string // file path when known, "" for stream reads
	Kind    string // container kind ("gshard", "plan", ...) when known
	Section string // section name when the damage is localized
	Reason  string // human-readable diagnosis
	Err     error  // underlying error, may be nil
}

func (e *CorruptError) Error() string {
	msg := "durable: corrupt"
	if e.Kind != "" {
		msg += " " + e.Kind
	}
	if e.Path != "" {
		msg += " " + e.Path
	}
	if e.Section != "" {
		msg += " (section " + e.Section + ")"
	}
	msg += ": " + e.Reason
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *CorruptError) Unwrap() error { return e.Err }

// VersionError reports a well-formed file written by a newer (or unknown)
// format revision than this binary understands. It is distinct from
// CorruptError because the right reaction differs: corrupt data is
// rebuilt, future data is refused without deleting it.
type VersionError struct {
	Path string
	Kind string
	Got  uint16
	Want uint16 // newest version this binary reads
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("durable: %s %s is format version %d, newest supported is %d",
		e.Kind, e.Path, e.Got, e.Want)
}

// IsCorrupt reports whether err is or wraps a *CorruptError.
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// NewCorruptError constructs a CorruptError and records the detection in
// the featgraph_durable_corrupt_reads_total counter. Format owners outside
// this package (graphio's section decoders, checkpoint loaders) use it so
// their own validation failures count alongside container-level ones.
func NewCorruptError(path, kind, section, reason string, err error) *CorruptError {
	if telemetry.Enabled() {
		mCorruptReads.Inc()
	}
	return &CorruptError{Path: path, Kind: kind, Section: section, Reason: reason, Err: err}
}

// corrupt constructs a CorruptError and records it in telemetry. All reader
// paths funnel through here so the counter never misses a detection.
func corrupt(path, kind, section, reason string, err error) *CorruptError {
	return NewCorruptError(path, kind, section, reason, err)
}
