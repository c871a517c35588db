// Package other shares a func name with lib.
package other

// Unused is called from cmd/app, despite its name.
func Unused() {}
