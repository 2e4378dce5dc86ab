package campaign

import (
	"bytes"
	"testing"
)

// TestNewWithTestbedByteIdentical pins the testbed-sharing contract: a
// campaign built on a shared, reused Testbed exports exactly the bytes a
// self-contained New produces, and running other seeds on the same testbed
// in between leaves it untouched (it is immutable, not merely reusable).
func TestNewWithTestbedByteIdentical(t *testing.T) {
	cfg := QuickConfig(23, 60)
	want := exportBytes(t, New(cfg).Run())

	tb := NewTestbed()
	if got := exportBytes(t, NewWithTestbed(cfg, tb).Run()); !bytes.Equal(got, want) {
		t.Fatal("NewWithTestbed dataset differs from New for the same seed")
	}
	// Interleave a different seed, then re-run seed 23 on the same testbed.
	NewWithTestbed(QuickConfig(31, 60), tb).Run()
	if got := exportBytes(t, NewWithTestbed(cfg, tb).Run()); !bytes.Equal(got, want) {
		t.Fatal("reused Testbed no longer reproduces seed 23 — shared state was mutated")
	}
}
