package spec

import (
	"testing"

	"checkfence/internal/encode"
	"checkfence/internal/lsl"
	"checkfence/internal/memmodel"
	"checkfence/internal/ranges"
)

func TestObservationKeyAndFormat(t *testing.T) {
	o := Observation{lsl.Int(1), lsl.Undef(), lsl.Ptr(2, 0)}
	if o.Key() != "1,undefined,[ 2 0 ]" {
		t.Errorf("Key = %q", o.Key())
	}
	entries := []Entry{{Label: "A"}, {Label: "X"}, {Label: "P"}}
	want := "A=1 X=undefined P=[ 2 0 ]"
	if got := o.Format(entries); got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
}

func TestSetOperations(t *testing.T) {
	s := NewSet()
	o1 := Observation{lsl.Int(1)}
	o2 := Observation{lsl.Int(2)}
	if !s.Add(o1) || s.Add(o1) {
		t.Error("Add novelty detection broken")
	}
	s.Add(o2)
	if !s.Has(o1) || s.Has(Observation{lsl.Int(3)}) {
		t.Error("Has broken")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	all := s.All()
	if len(all) != 2 || all[0].Key() > all[1].Key() {
		t.Error("All must be sorted")
	}
	s2 := NewSet()
	s2.Add(o2)
	s2.Add(o1)
	if !s.Equal(s2) {
		t.Error("Equal must be order independent")
	}
	s2.Add(Observation{lsl.Int(9)})
	if s.Equal(s2) {
		t.Error("Equal must detect size difference")
	}
}

// buildMiningEncoder builds a tiny one-thread encoder whose single
// observed register takes nondeterministic values constrained to a
// known set.
func buildMiningEncoder(t *testing.T) (*encode.Encoder, []Entry) {
	t.Helper()
	// r = havoc(2 bits); assume r != 3  => observations {0,1,2}.
	body := []lsl.Stmt{
		&lsl.HavocStmt{Dst: "r", Bits: 2},
		&lsl.ConstStmt{Dst: "three", Val: lsl.Int(3)},
		&lsl.OpStmt{Dst: "ne", Op: lsl.OpNe, Args: []lsl.Reg{"r", "three"}},
		&lsl.AssumeStmt{Cond: "ne"},
	}
	info := ranges.Analyze([][]lsl.Stmt{body})
	e := encode.New(memmodel.Serial, info)
	err := e.Encode([]encode.Thread{
		{},
		{Name: "t", Segments: [][]lsl.Stmt{body}, OpIDs: []int{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, []Entry{{Label: "R", Thread: 1, Reg: "r"}}
}

func TestMineEnumeratesAll(t *testing.T) {
	e, entries := buildMiningEncoder(t)
	set, stats, err := Mine(e, entries)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 3 {
		t.Errorf("mined %d observations, want 3: %v", set.Len(), set.All())
	}
	if stats.Iterations < 3 {
		t.Errorf("iterations = %d", stats.Iterations)
	}
	for _, v := range []int64{0, 1, 2} {
		if !set.Has(Observation{lsl.Int(v)}) {
			t.Errorf("missing observation %d", v)
		}
	}
}

func TestMineDetectsSequentialBug(t *testing.T) {
	body := []lsl.Stmt{
		&lsl.ConstStmt{Dst: "zero", Val: lsl.Int(0)},
		&lsl.AssertStmt{Cond: "zero", Msg: "always fails"},
		&lsl.ConstStmt{Dst: "r", Val: lsl.Int(1)},
	}
	info := ranges.Analyze([][]lsl.Stmt{body})
	e := encode.New(memmodel.Serial, info)
	if err := e.Encode([]encode.Thread{
		{},
		{Name: "t", Segments: [][]lsl.Stmt{body}, OpIDs: []int{0}},
	}); err != nil {
		t.Fatal(err)
	}
	_, _, err := Mine(e, []Entry{{Label: "R", Thread: 1, Reg: "r"}})
	bug, ok := err.(*SeqBugError)
	if !ok {
		t.Fatalf("expected SeqBugError, got %v", err)
	}
	// The reported observation is decoded from the erroneous model.
	if len(bug.Obs) != 1 || !bug.Obs[0].Equal(lsl.Int(1)) {
		t.Errorf("seq-bug observation = %v, want [1]", bug.Obs)
	}
}

func TestCheckInclusionPassAndFail(t *testing.T) {
	// The execution produces r in {0,1,2}; a spec of exactly that set
	// passes, a smaller one fails with the missing observation.
	full := NewSet()
	for _, v := range []int64{0, 1, 2} {
		full.Add(Observation{lsl.Int(v)})
	}
	e, entries := buildMiningEncoder(t)
	cex, err := CheckInclusion(e, entries, full)
	if err != nil {
		t.Fatal(err)
	}
	if cex != nil {
		t.Fatalf("inclusion must pass, got cex %v", cex.Obs)
	}

	partial := NewSet()
	partial.Add(Observation{lsl.Int(0)})
	partial.Add(Observation{lsl.Int(2)})
	e2, entries2 := buildMiningEncoder(t)
	cex, err = CheckInclusion(e2, entries2, partial)
	if err != nil {
		t.Fatal(err)
	}
	if cex == nil {
		t.Fatal("inclusion against the partial spec must fail")
	}
	if !cex.Obs[0].Equal(lsl.Int(1)) {
		t.Errorf("counterexample observation = %v, want 1", cex.Obs[0])
	}
	if cex.IsErr {
		t.Error("not an error counterexample")
	}
}

func TestCheckInclusionReportsErrors(t *testing.T) {
	body := []lsl.Stmt{
		&lsl.HavocStmt{Dst: "h", Bits: 1},
		&lsl.AssertStmt{Cond: "h", Msg: "h must be one"},
		&lsl.OpStmt{Dst: "r", Op: lsl.OpIdent, Args: []lsl.Reg{"h"}},
	}
	info := ranges.Analyze([][]lsl.Stmt{body})
	e := encode.New(memmodel.SequentialConsistency, info)
	if err := e.Encode([]encode.Thread{
		{},
		{Name: "t", Segments: [][]lsl.Stmt{body}, OpIDs: []int{0}},
	}); err != nil {
		t.Fatal(err)
	}
	// The spec admits everything; only the assertion can fail.
	spec := NewSet()
	spec.Add(Observation{lsl.Int(0)})
	spec.Add(Observation{lsl.Int(1)})
	cex, err := CheckInclusion(e, []Entry{{Label: "R", Thread: 1, Reg: "r"}}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if cex == nil || !cex.IsErr {
		t.Fatalf("expected an error counterexample, got %+v", cex)
	}
	if cex.Err == "" {
		t.Error("error message missing")
	}
}

func TestMineUnknownEntry(t *testing.T) {
	e, _ := buildMiningEncoder(t)
	if _, _, err := Mine(e, []Entry{{Label: "X", Thread: 1, Reg: "nosuch"}}); err == nil {
		t.Error("unknown register must fail")
	}
	if _, _, err := Mine(e, []Entry{{Label: "X", Thread: 9, Reg: "r"}}); err == nil {
		t.Error("unknown thread must fail")
	}
}
