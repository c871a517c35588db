package main

import (
	"example/internal/lib"
	"example/internal/other"
)

func main() {
	var t lib.T
	t.Method()
	other.Unused()
	_ = lib.Used()
}
