package spec_test

import (
	"strings"
	"testing"

	"checkfence/internal/encode"
	"checkfence/internal/lsl"
	"checkfence/internal/memmodel"
	"checkfence/internal/ranges"
	"checkfence/internal/spec"
	"checkfence/internal/trace"
	"checkfence/internal/validate"
)

// assertingMP is the message-passing shape (the writer stores x=1 then
// y=1, the reader loads r1=y then r2=x) with an assertion over the
// reader's values appended to the reader.
func assertingMP(check []lsl.Stmt) []encode.Thread {
	init := []lsl.Stmt{
		&lsl.ConstStmt{Dst: "i.xa", Val: lsl.Ptr(0)},
		&lsl.ConstStmt{Dst: "i.z", Val: lsl.Int(0)},
		&lsl.StoreStmt{Addr: "i.xa", Src: "i.z"},
		&lsl.ConstStmt{Dst: "i.ya", Val: lsl.Ptr(1)},
		&lsl.StoreStmt{Addr: "i.ya", Src: "i.z"},
	}
	writer := []lsl.Stmt{
		&lsl.ConstStmt{Dst: "a.xa", Val: lsl.Ptr(0)},
		&lsl.ConstStmt{Dst: "a.ya", Val: lsl.Ptr(1)},
		&lsl.ConstStmt{Dst: "a.one", Val: lsl.Int(1)},
		&lsl.StoreStmt{Addr: "a.xa", Src: "a.one"},
		&lsl.StoreStmt{Addr: "a.ya", Src: "a.one"},
	}
	reader := append([]lsl.Stmt{
		&lsl.ConstStmt{Dst: "b.xa", Val: lsl.Ptr(0)},
		&lsl.ConstStmt{Dst: "b.ya", Val: lsl.Ptr(1)},
		&lsl.ConstStmt{Dst: "b.zero", Val: lsl.Int(0)},
		&lsl.LoadStmt{Dst: "b.r1", Addr: "b.ya"},
		&lsl.LoadStmt{Dst: "b.r2", Addr: "b.xa"},
	}, check...)
	threads := make([]encode.Thread, 3)
	for i, body := range [][]lsl.Stmt{init, writer, reader} {
		threads[i] = encode.Thread{Name: []string{"init", "a", "b"}[i],
			Segments: [][]lsl.Stmt{body}, OpIDs: []int{i}}
	}
	return threads
}

// checkOnce encodes threads under m and runs the one inclusion query
// against the spec {r1=0 r2=0, r1=1 r2=1}. A counterexample must pass
// the validator (axiom re-check and interpreter replay).
func checkOnce(t *testing.T, threads []encode.Thread, m memmodel.Model) *spec.Counterexample {
	t.Helper()
	entries := []spec.Entry{
		{Label: "r1", Thread: 2, Reg: "b.r1"},
		{Label: "r2", Thread: 2, Reg: "b.r2"},
	}
	set := spec.NewSet()
	set.Add(spec.Observation{lsl.Int(0), lsl.Int(0)})
	set.Add(spec.Observation{lsl.Int(1), lsl.Int(1)})
	bodies := make([][]lsl.Stmt, len(threads))
	for i, th := range threads {
		bodies[i] = th.Segments[0]
	}
	e := encode.NewWithConfig(m, ranges.Analyze(bodies), encode.DefaultConfig())
	if err := e.Encode(threads); err != nil {
		t.Fatal(err)
	}
	e.AssertNoOverflow()
	cex, err := spec.CheckInclusion(e, entries, set)
	if err != nil {
		t.Fatalf("%v: %v", m, err)
	}
	if cex != nil {
		tr := trace.Decode(e, cex, entries, nil, []string{"init", "a", "b"})
		if err := validate.Check(tr, threads, lsl.NewProgram()); err != nil {
			t.Fatalf("%v: counterexample %+v fails validation: %v\n%s", m, cex, err, tr)
		}
	}
	return cex
}

// TestOneQueryErrorOrObservation: the one inclusion query fails a
// model on an assertion failure and on an out-of-spec observation
// alike, and its witness validates whichever kind it is.
func TestOneQueryErrorOrObservation(t *testing.T) {
	// assert r2 == 0: the reader fails the assertion whenever it sees
	// x=1, and on Relaxed the error-free r1=1 r2=0 leaves the spec too.
	both := assertingMP([]lsl.Stmt{
		&lsl.OpStmt{Dst: "b.ok", Op: lsl.OpEq, Args: []lsl.Reg{"b.r2", "b.zero"}},
		&lsl.AssertStmt{Cond: "b.ok", Msg: "r2 must be 0"},
	})
	for _, m := range []memmodel.Model{memmodel.SequentialConsistency, memmodel.Relaxed} {
		if cex := checkOnce(t, both, m); cex == nil {
			t.Errorf("%v: error and out-of-spec observation reachable, yet the check passes", m)
		}
	}

	// assert r1 == r2: every execution leaving the spec (r1=0 r2=1 on
	// SC, r1=1 r2=0 too on Relaxed) fails the assertion, so the
	// witness must be an error.
	onlyErr := assertingMP([]lsl.Stmt{
		&lsl.OpStmt{Dst: "b.ok", Op: lsl.OpEq, Args: []lsl.Reg{"b.r1", "b.r2"}},
		&lsl.AssertStmt{Cond: "b.ok", Msg: "r1 must equal r2"},
	})
	for _, m := range []memmodel.Model{memmodel.SequentialConsistency, memmodel.Relaxed} {
		cex := checkOnce(t, onlyErr, m)
		if cex == nil || !cex.IsErr || !strings.HasSuffix(cex.Err, "r1 must equal r2") {
			t.Errorf("%v: counterexample %+v, want the assertion failure", m, cex)
		}
	}
}
