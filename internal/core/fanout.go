package core

// This file plans cross-process cube-and-conquer fan-out: it splits
// one check into assumption cubes a coordinator can ship to fleet
// workers as serializable descriptions (job.Check.Assume). The cubes
// are expressed as signed 1-based ordinals into the encoder's
// deterministic memory-order variable list — see Options.Assume for
// the wire semantics and why ordinals (not raw SAT variables) are the
// cross-process currency.

import (
	"fmt"
	"time"

	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
	"checkfence/internal/sat"
)

// CubeAssumptions plans a fan-out of the check into up to 2^depth
// cubes: it builds and encodes the check at its initial bounds, runs
// the cube-and-conquer splitter (sat.CubeSplitter) biased to
// memory-order variables, and renders the chosen variables as
// wire-format ordinals. The returned cubes are jointly exhaustive and
// pairwise disjoint over the split variables: a coordinator
// dispatching one description per cube and aggregating any-FAIL /
// all-PASS reconstructs the undivided verdict.
//
// A nil result (with nil error) means the check offers no useful
// split (fewer than two cubes) and should run undivided.
func CubeAssumptions(impl *harness.Impl, test *harness.Test, opts Options, depth int) ([][]int, error) {
	if depth <= 0 {
		return nil, fmt.Errorf("core: cube depth %d must be positive", depth)
	}
	var deadline time.Time
	if opts.Deadline > 0 {
		deadline = time.Now().Add(opts.Deadline)
	}
	// The same front end and encoder a check attempt starts from, so
	// the ordinals index the order variables a worker's check encodes.
	a := &attempt{impl: impl, test: test, opts: opts, deadline: deadline}
	if err := a.start(); err != nil {
		return nil, err
	}
	enc, err := a.encode([]memmodel.Model{opts.Model})
	if err != nil {
		return nil, err
	}
	enc.AssertNoOverflow()

	orderVars := enc.OrderSatVars()
	ordinal := make(map[int]int, len(orderVars)) // SAT var -> 1-based ordinal
	for i, v := range orderVars {
		ordinal[v] = i + 1
	}
	cubes := sat.CubeSplitter{Depth: depth, Prefer: orderVars}.Split(enc.S)
	if len(cubes) < 2 {
		return nil, nil
	}
	// Keep only split variables that are order variables: anything
	// else has no stable cross-process identity. Dropping a variable
	// from every cube merges sign-twin cubes — exhaustiveness is
	// preserved, the fan-out just gets narrower.
	var ordinals []int
	for _, l := range cubes[0] {
		if k, ok := ordinal[l.Var()]; ok {
			ordinals = append(ordinals, k)
		}
	}
	if len(ordinals) == 0 {
		return nil, nil
	}
	out := make([][]int, 1<<uint(len(ordinals)))
	for mask := range out {
		cube := make([]int, len(ordinals))
		for i, k := range ordinals {
			if mask>>uint(i)&1 == 1 {
				cube[i] = -k
			} else {
				cube[i] = k
			}
		}
		out[mask] = cube
	}
	return out, nil
}
