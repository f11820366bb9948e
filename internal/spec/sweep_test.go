package spec

import (
	"testing"

	"checkfence/internal/encode"
	"checkfence/internal/lsl"
	"checkfence/internal/memmodel"
	"checkfence/internal/ranges"
)

// mpBodies builds the message-passing shape: init writes x=y=0, the
// writer publishes data then flag, the reader polls flag then data.
// The weak observation r1=1,r2=0 is reachable under PSO/Relaxed only.
func mpBodies() [][]lsl.Stmt {
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
	reader := []lsl.Stmt{
		&lsl.ConstStmt{Dst: "b.xa", Val: lsl.Ptr(0)},
		&lsl.ConstStmt{Dst: "b.ya", Val: lsl.Ptr(1)},
		&lsl.LoadStmt{Dst: "b.r1", Addr: "b.ya"},
		&lsl.LoadStmt{Dst: "b.r2", Addr: "b.xa"},
	}
	return [][]lsl.Stmt{init, writer, reader}
}

func mpEntries() []Entry {
	return []Entry{
		{Label: "r1", Thread: 2, Reg: "b.r1"},
		{Label: "r2", Thread: 2, Reg: "b.r2"},
	}
}

func encodeMP(t *testing.T, m memmodel.Model) *encode.Encoder {
	t.Helper()
	bodies := mpBodies()
	e := encode.New(m, ranges.Analyze(bodies))
	threads := make([]encode.Thread, len(bodies))
	for i, b := range bodies {
		threads[i] = encode.Thread{Name: "t", Segments: [][]lsl.Stmt{b}, OpIDs: []int{i}}
	}
	if err := e.Encode(threads); err != nil {
		t.Fatal(err)
	}
	e.AssertNoOverflow()
	return e
}

func encodeMPSweep(t *testing.T, models []memmodel.Model) *encode.Encoder {
	t.Helper()
	bodies := mpBodies()
	e, err := encode.NewSweepWithConfig(models, ranges.Analyze(bodies), encode.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	threads := make([]encode.Thread, len(bodies))
	for i, b := range bodies {
		threads[i] = encode.Thread{Name: "t", Segments: [][]lsl.Stmt{b}, OpIDs: []int{i}}
	}
	if err := e.Encode(threads); err != nil {
		t.Fatal(err)
	}
	e.AssertNoOverflow()
	return e
}

// mineModel enumerates the full observation set of the MP shape under
// one model with the given strategy.
func mineModel(t *testing.T, m memmodel.Model, strat Strategy) (*Set, MineStats) {
	t.Helper()
	set, stats, err := MineWith(encodeMP(t, m), mpEntries(), strat)
	if err != nil {
		t.Fatalf("%v: %v", m, err)
	}
	return set, stats
}

// TestSweepCheckMatchesIndependent: the shared-formula SweepCheck must
// reproduce the single-model CheckInclusionWith verdicts, and its
// counterexample observations must lie outside the spec.
func TestSweepCheckMatchesIndependent(t *testing.T) {
	sweep := []memmodel.Model{
		memmodel.SequentialConsistency, memmodel.TSO,
		memmodel.PSO, memmodel.Relaxed,
	}
	// The spec is the serial observation set, as in the real pipeline.
	specSet, _ := mineModel(t, memmodel.Serial, Strategy{})
	sc, err := NewSweepCheck(encodeMPSweep(t, sweep), mpEntries(), specSet)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range sweep {
		got, err := sc.Check(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		want, err := CheckInclusionWith(encodeMP(t, m), mpEntries(), specSet, Strategy{})
		if err != nil {
			t.Fatalf("%v independent: %v", m, err)
		}
		if (got == nil) != (want == nil) {
			t.Fatalf("%v: sweep cex %v, independent cex %v", m, got, want)
		}
		if got != nil && (got.IsErr || specSet.Has(got.Obs)) {
			t.Fatalf("%v: sweep counterexample %+v is an error or inside the spec", m, got)
		}
	}
}

// TestSweepCheckSingleModel: a single-model encoder has no selector
// literals, and SweepCheck solves it unassumed.
func TestSweepCheckSingleModel(t *testing.T) {
	single := encodeMP(t, memmodel.Relaxed)
	if lits := single.SelectorLits(memmodel.Relaxed); lits != nil {
		t.Errorf("single-model encoder has selector literals %v", lits)
	}
	sc, err := NewSweepCheck(single, mpEntries(), NewSet())
	if err != nil {
		t.Fatalf("NewSweepCheck rejected a single-model encoder: %v", err)
	}
	// The empty spec admits no observation, so any execution fails it.
	if cex, err := sc.Check(memmodel.Relaxed); err != nil || cex == nil || cex.IsErr {
		t.Fatalf("Check against the empty spec = %+v, %v; want an error-free counterexample", cex, err)
	}
}
