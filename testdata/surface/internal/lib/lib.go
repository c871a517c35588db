// Package lib is a fixture of the exported-surface guard's self-test.
package lib

// Used is called from cmd/app.
func Used() int { return Kept() }

// Kept is used bare inside its own package.
func Kept() int { return 1 }

// Listed is used only by tests, and the allowlist says why.
func Listed() {}

var _ = Unused // a blank assertion is not a use

// Unused has no non-test use: other.Unused in cmd/app is another package's.
func Unused() {}

// T is used from cmd/app.
type T struct{}

// Method is selected in cmd/app.
func (T) Method() {}
