package lib

import "testing"

// A use from a test file does not keep TestOnly alive.
func TestTestOnly(t *testing.T) {
	if TestOnly() != 3 {
		t.Fatal("TestOnly")
	}
}
