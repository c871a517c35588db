package lib

import "testing"

// A test's use does not count.
func TestUnused(t *testing.T) { Unused(); Listed() }
