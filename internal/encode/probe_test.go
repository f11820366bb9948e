package encode

import (
	"slices"
	"testing"

	"checkfence/internal/lsl"
	"checkfence/internal/memmodel"
	"checkfence/internal/sat"
)

// overflowIf returns a block that reaches the overflow marker of loop
// id exactly when register cond holds, the shape the unroller leaves
// where a loop's bound is exhausted.
func overflowIf(cond string, id int, tag string) lsl.Stmt {
	return &lsl.BlockStmt{Tag: tag, Body: []lsl.Stmt{
		&lsl.OpStmt{Dst: lsl.Reg(tag + "_skip"), Op: lsl.OpNot, Args: []lsl.Reg{lsl.Reg(cond)}},
		&lsl.BreakStmt{Cond: lsl.Reg(tag + "_skip"), Tag: tag},
		&lsl.OverflowStmt{LoopID: id},
	}}
}

// havocBit assigns a nondeterministic bit and its negation.
func havocBit(r string) []lsl.Stmt {
	return []lsl.Stmt{
		&lsl.HavocStmt{Dst: lsl.Reg(r), Bits: 1},
		&lsl.OpStmt{Dst: lsl.Reg("not_" + r), Op: lsl.OpNot, Args: []lsl.Reg{lsl.Reg(r)}},
	}
}

// exclusiveLoops is one thread whose havocked bit picks which of loops
// 1 and 2 overflows, so no single execution flags both.
func exclusiveLoops(t *testing.T) *Encoder {
	t.Helper()
	body := append(havocBit("h"), overflowIf("h", 1, "A"), overflowIf("not_h", 2, "B"))
	return encodeThreads(t, memmodel.SequentialConsistency, nil, body)
}

func TestProbeOverflowsIndependentLoops(t *testing.T) {
	e := encodeThreads(t, memmodel.SequentialConsistency, nil,
		append(havocBit("h"), overflowIf("h", 1, "A")),
		append(havocBit("g"), overflowIf("g", 2, "B")))
	ids, st := e.ProbeOverflows()
	if st != sat.Sat || !slices.Equal(ids, []int{1, 2}) {
		t.Fatalf("ProbeOverflows = %v, %v; want [1 2], Sat", ids, st)
	}
}

// TestProbeOverflowsExclusiveLoops is the case one model cannot cover:
// a single SAT answer flags one of the two loops, the helper both.
func TestProbeOverflowsExclusiveLoops(t *testing.T) {
	one := exclusiveLoops(t)
	one.AssertSomeOverflow()
	if st := one.S.Solve(); st != sat.Sat {
		t.Fatalf("single probe: %v, want Sat", st)
	}
	if got := one.OverflowingLoops(); len(got) != 1 {
		t.Fatalf("one model flags %v; the harness must keep the loops exclusive", got)
	}
	ids, st := exclusiveLoops(t).ProbeOverflows()
	if st != sat.Sat || !slices.Equal(ids, []int{1, 2}) {
		t.Fatalf("ProbeOverflows = %v, %v; want [1 2], Sat", ids, st)
	}
}

func TestProbeOverflowsNone(t *testing.T) {
	body := append(havocBit("h"),
		&lsl.AssumeStmt{Cond: "not_h"},
		overflowIf("h", 1, "A"))
	e := encodeThreads(t, memmodel.SequentialConsistency, nil, body)
	ids, st := e.ProbeOverflows()
	if st != sat.Unsat || len(ids) != 0 {
		t.Fatalf("ProbeOverflows = %v, %v; want [], Unsat", ids, st)
	}
}

// TestProbeOverflowsStoppedMidCollection stops the second solve: the
// first found one loop, and the helper must return Unknown with no
// loops rather than that partial set.
func TestProbeOverflowsStoppedMidCollection(t *testing.T) {
	e := exclusiveLoops(t)
	calls := 0
	e.S.SetStop(func() bool { calls++; return calls > 1 })
	ids, st := e.ProbeOverflows()
	if st != sat.Unknown || ids != nil {
		t.Fatalf("ProbeOverflows = %v, %v; want nil, Unknown", ids, st)
	}
	if calls != 2 {
		t.Fatalf("stop consulted %d times; want 2 (the first solve finished, the second stopped)", calls)
	}
}

// TestProbeLeavesFormulaIntact: the probe's "some loop overflows"
// clauses are guarded by its activation literal, so after a probe that
// flagged both loops, RestrictToSerial still admits the execution that
// overflows neither, and the encoder reports Serial.
func TestProbeLeavesFormulaIntact(t *testing.T) {
	e := encodeThreads(t, memmodel.SequentialConsistency, nil,
		append(havocBit("h"), overflowIf("h", 1, "A")),
		append(havocBit("g"), overflowIf("g", 2, "B")))
	if ids, st := e.ProbeOverflows(); st != sat.Sat || len(ids) != 2 {
		t.Fatalf("ProbeOverflows = %v, %v; want both loops, Sat", ids, st)
	}
	e.RestrictToSerial()
	if e.Model != memmodel.Serial {
		t.Fatalf("restricted formula reports %v, want serial", e.Model)
	}
	if st := e.S.Solve(); st != sat.Sat {
		t.Fatalf("restricted formula: %v, want Sat (no loop overflows)", st)
	}
	if got := e.OverflowingLoops(); len(got) != 0 {
		t.Fatalf("loops %v overflow in the restricted formula", got)
	}
}
