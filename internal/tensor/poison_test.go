//go:build poison

package tensor

import (
	"math"
	"testing"
)

// TestPoisonFillsUncleared checks the poison build itself: every buffer
// GetUncleared hands out, fresh or reused, is NaN, and Get still clears.
func TestPoisonFillsUncleared(t *testing.T) {
	for _, p := range []*Pool{nil, NewPool()} {
		for round := 0; round < 2; round++ {
			u := p.GetUncleared(3, 5)
			for i, v := range u.Data {
				if !math.IsNaN(float64(v)) {
					t.Fatalf("pool %v round %d: GetUncleared element %d = %v, want NaN", p != nil, round, i, v)
				}
			}
			p.Put(u)
			z := p.Get(5, 3)
			for i, v := range z.Data {
				if v != 0 {
					t.Fatalf("pool %v round %d: Get element %d = %v after a poisoned Put", p != nil, round, i, v)
				}
			}
			p.Put(z)
		}
	}
}
