package core

import (
	"testing"

	"checkfence/internal/memmodel"
)

// TestAllocCeiling holds two Relaxed checks under an allocation
// ceiling of 0.85 of what they allocated while every formula of a
// check had a solver and circuit builder of its own (measured with Go
// 1.24 on amd64). The formulas of an attempt now share that storage
// (attempt.spare, encode.NewReusing), which brought both well under
// it; a change that loses the reuse fails here.
func TestAllocCeiling(t *testing.T) {
	for _, r := range []struct {
		impl, test string
		before     uint64 // bytes, one storage per formula
	}{
		{"lazylist", "Sac", 22_330_000},
		{"harris", "Saa", 168_210_000},
	} {
		res := check(t, r.impl, r.test, Options{Model: memmodel.Relaxed})
		if ceiling := r.before / 100 * 85; res.Stats.AllocBytes > ceiling {
			t.Errorf("%s/%s allocated %d bytes, over the ceiling of %d (0.85 of %d)",
				r.impl, r.test, res.Stats.AllocBytes, ceiling, r.before)
		}
		t.Logf("%s/%s: %d bytes allocated", r.impl, r.test, res.Stats.AllocBytes)
	}
}
