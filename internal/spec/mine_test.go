package spec

import (
	"errors"
	"testing"

	"checkfence/internal/encode"
	"checkfence/internal/lsl"
	"checkfence/internal/memmodel"
	"checkfence/internal/ranges"
)

// buildWideMiningEncoder yields 15 observations (a 4-bit havoc with
// one value excluded), enough to exercise iteration limits,
// checkpoints and resumes.
func buildWideMiningEncoder(t *testing.T) (*encode.Encoder, []Entry) {
	t.Helper()
	body := []lsl.Stmt{
		&lsl.HavocStmt{Dst: "r", Bits: 4},
		&lsl.ConstStmt{Dst: "seven", Val: lsl.Int(7)},
		&lsl.OpStmt{Dst: "ne", Op: lsl.OpNe, Args: []lsl.Reg{"r", "seven"}},
		&lsl.AssumeStmt{Cond: "ne"},
	}
	info := ranges.Analyze([][]lsl.Stmt{body})
	e := encode.New(memmodel.Serial, info)
	if err := e.Encode([]encode.Thread{
		{},
		{Name: "t", Segments: [][]lsl.Stmt{body}, OpIDs: []int{0}},
	}); err != nil {
		t.Fatal(err)
	}
	return e, []Entry{{Label: "R", Thread: 1, Reg: "r"}}
}

// TestMineIterationLimit: an absurdly low cap surfaces ErrMineLimit.
func TestMineIterationLimit(t *testing.T) {
	e, entries := buildWideMiningEncoder(t)
	_, _, err := MineWith(e, entries, Strategy{MaxMineIterations: 1})
	if !errors.Is(err, ErrMineLimit) {
		t.Errorf("err = %v, want ErrMineLimit", err)
	}
}

// TestCheckInclusionWithParity: the inclusion check passes the full
// serial set and fails a set missing one observation, reporting exactly
// that observation as the counterexample.
func TestCheckInclusionWithParity(t *testing.T) {
	full := NewSet()
	for v := int64(0); v < 16; v++ {
		if v != 7 {
			full.Add(Observation{lsl.Int(v)})
		}
	}
	partial := NewSet()
	for v := int64(0); v < 16; v++ {
		if v != 7 && v != 5 {
			partial.Add(Observation{lsl.Int(v)})
		}
	}
	e, entries := buildWideMiningEncoder(t)
	cex, err := CheckInclusionWith(e, entries, full, Strategy{})
	if err != nil {
		t.Fatal(err)
	}
	if cex != nil {
		t.Errorf("full spec must pass, got cex %v", cex.Obs)
	}

	e2, entries2 := buildWideMiningEncoder(t)
	cex, err = CheckInclusionWith(e2, entries2, partial, Strategy{})
	if err != nil {
		t.Fatal(err)
	}
	if cex == nil {
		t.Fatal("partial spec must fail")
	}
	if !cex.Obs[0].Equal(lsl.Int(5)) {
		t.Errorf("counterexample = %v, want 5", cex.Obs[0])
	}
}

// TestBlockingClauseShrink: shrinking blocking clauses must not change
// the mined set or the iteration count.
func TestBlockingClauseShrink(t *testing.T) {
	defer func(v bool) { blockShrink = v }(blockShrink)

	type result struct {
		set   *Set
		iters int
	}
	run := func(shrink bool) result {
		blockShrink = shrink
		e, entries := buildWideMiningEncoder(t)
		set, stats, err := MineWith(e, entries, Strategy{})
		if err != nil {
			t.Fatalf("shrink=%v: %v", shrink, err)
		}
		return result{set, stats.Iterations}
	}
	with := run(true)
	without := run(false)
	if !with.set.Equal(without.set) {
		t.Error("shrunk blocking clauses changed the mined set")
	}
	if with.iters != without.iters {
		t.Errorf("iterations %d (shrunk) != %d (full)", with.iters, without.iters)
	}
}
