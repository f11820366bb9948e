package core

import (
	"reflect"
	"testing"

	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
)

// TestCubeAssumptionsPlan pins the fan-out plan of one pair and checks
// the properties a coordinator relies on: the cubes are pairwise
// disjoint and jointly exhaustive over their ordinals, and aggregating
// any-FAIL / all-PASS over the per-cube checks reproduces the undivided
// verdict.
func TestCubeAssumptionsPlan(t *testing.T) {
	impl, err := harness.Get("ms2")
	if err != nil {
		t.Fatal(err)
	}
	test, err := harness.GetTest(impl, "T0")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Model: memmodel.Relaxed}
	cubes, err := CubeAssumptions(impl, test, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	golden := [][]int{{73, 69}, {-73, 69}, {73, -69}, {-73, -69}}
	if !reflect.DeepEqual(cubes, golden) {
		t.Fatalf("cubes = %v, want %v", cubes, golden)
	}

	// Every cube fixes the same ordinals, and the sign patterns are
	// distinct (disjoint) and cover all 2^k combinations (exhaustive).
	seen := map[int]bool{}
	for _, cube := range cubes {
		if len(cube) != len(cubes[0]) {
			t.Fatalf("cube %v fixes %d ordinals, want %d", cube, len(cube), len(cubes[0]))
		}
		mask := 0
		for i, lit := range cube {
			if abs(lit) != abs(cubes[0][i]) {
				t.Fatalf("cube %v splits on ordinal %d, want %d", cube, abs(lit), abs(cubes[0][i]))
			}
			if lit < 0 {
				mask |= 1 << i
			}
		}
		if seen[mask] {
			t.Errorf("cube %v overlaps an earlier cube", cube)
		}
		seen[mask] = true
	}
	if len(seen) != 1<<len(cubes[0]) {
		t.Errorf("%d distinct cubes over %d ordinals: not exhaustive", len(seen), len(cubes[0]))
	}

	for _, name := range []string{"ms2", "ms2-nofence"} {
		impl, err := harness.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		test, err := harness.GetTest(impl, "T0")
		if err != nil {
			t.Fatal(err)
		}
		whole, err := CheckImpl(impl, test, opts)
		if err != nil {
			t.Fatal(err)
		}
		cubes, err := CubeAssumptions(impl, test, opts, 2)
		if err != nil || len(cubes) < 2 {
			t.Fatalf("%s: cubes %v, err %v", name, cubes, err)
		}
		pass := true
		for _, cube := range cubes {
			o := opts
			o.Assume = cube
			res, err := CheckImpl(impl, test, o)
			if err != nil {
				t.Fatalf("%s cube %v: %v", name, cube, err)
			}
			if res.Stats.AssumedLits != len(cube) {
				t.Errorf("%s cube %v: AssumedLits=%d", name, cube, res.Stats.AssumedLits)
			}
			pass = pass && res.Pass
		}
		if pass != whole.Pass {
			t.Errorf("%s: cubes aggregate to pass=%v, undivided check pass=%v", name, pass, whole.Pass)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
