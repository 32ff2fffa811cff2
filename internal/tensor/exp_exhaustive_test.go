//go:build expsweep

package tensor

import (
	"testing"
	"time"
)

// TestExpExhaustive is TestExpKernelsMatchMath's sweep at stride 1: every
// float32 bit pattern through the vector exp (against math.Exp in float64)
// and SiLU, and every product and ExpShift on every 16th chunk. Behind the
// expsweep tag because it takes about a minute on two cores;
// scripts/exp-exhaustive.sh runs it.
func TestExpExhaustive(t *testing.T) {
	start := time.Now()
	checked, failed, first := expSweep(1)
	t.Logf("vector exp: %v; %d inputs in %v, %d chunks with a mismatch", useExp, checked, time.Since(start).Round(time.Second), failed)
	if checked != 1<<32 {
		t.Fatalf("checked %d inputs, want 2^32", checked)
	}
	if failed > 0 {
		t.Fatalf("first mismatch: %s", first)
	}
}
