package dgl

import (
	"context"
	"errors"
	"fmt"

	"featgraph/internal/admission"
)

// AbortError is how serving-policy terminations travel out of an op's tape
// closure. Op ApplyCtx runs inside autodiff tape callbacks that cannot return
// errors, so kernel failures historically panic; an abort-class failure —
// cancellation, deadline expiry, admission shedding, a watchdog stall — is
// not a programming error, so it panics as this typed value instead, which
// nn.TrainEpoch recovers into an ordinary error return.
type AbortError struct {
	// Op names the operation that was executing, e.g. "copy-agg forward".
	Op string
	// Err is the underlying termination cause.
	Err error
}

func (e *AbortError) Error() string { return "dgl: " + e.Op + ": " + e.Err.Error() }

func (e *AbortError) Unwrap() error { return e.Err }

// isAbort classifies kernel-run errors: true for serving-policy
// terminations that should unwind to the training loop as errors, false
// for programming errors that should keep panicking loudly.
func isAbort(err error) bool {
	var se *admission.StallError
	var de *admission.DeadlineError
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, admission.ErrOverloaded) ||
		errors.As(err, &se) ||
		errors.As(err, &de)
}

// opError converts a kernel-run failure into the value an op panics with:
// a *AbortError for abort-class failures, the historical descriptive
// string otherwise.
func opError(op string, err error) any {
	if isAbort(err) {
		return &AbortError{Op: op, Err: err}
	}
	return fmt.Sprintf("dgl: %s: %v", op, err)
}
