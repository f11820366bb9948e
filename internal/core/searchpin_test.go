package core

import (
	"testing"

	"checkfence/internal/memmodel"
)

// TestSearchPinned pins the solver's search on three Relaxed rows:
// the conflict, propagation and decision counters and the final CNF
// clause count must match exactly. Changes to the solver's data layout
// (clause storage, watch-list construction, scratch buffers) must not
// alter a single clause, watcher order or decision, and this test is
// what shows it. A change that is meant to alter the search updates
// these values deliberately, in the same commit.
func TestSearchPinned(t *testing.T) {
	rows := []struct {
		impl, test                         string
		conflicts, propagations, decisions int64
		clauses                            int
	}{
		{"ms2", "T1", 56, 4482, 149, 905},
		{"msn", "T0", 27, 4090, 121, 1947},
		{"snark", "D0", 163, 72607, 701, 10071},
	}
	for _, r := range rows {
		res := check(t, r.impl, r.test, Options{Model: memmodel.Relaxed})
		st := res.Stats
		got := [4]int64{st.SolverStats.Conflicts, st.SolverStats.Propagations,
			st.SolverStats.Decisions, int64(st.CNFClauses)}
		want := [4]int64{r.conflicts, r.propagations, r.decisions, int64(r.clauses)}
		if got != want {
			t.Errorf("%s/%s: conflicts/propagations/decisions/clauses = %v, want %v",
				r.impl, r.test, got, want)
		}
	}
}

// TestRepeatedChecksIdentical: a check's formula and search must not
// depend on which checks ran before it in the process. After a Relaxed
// check of the same pair, repeated PSO checks of msn-nofence/T0 must
// report identical stats, times aside. Asserting the loop-overflow
// guards in map order would number their SAT variables differently
// from run to run.
func TestRepeatedChecksIdentical(t *testing.T) {
	counts := func(st Stats) Stats {
		st.ProbeTime, st.MineTime, st.EncodeTime, st.RefuteTime, st.TotalTime = 0, 0, 0, 0, 0
		st.PreprocessTime, st.SolverStats.PreprocessTime = 0, 0
		st.AllocBytes = 0
		return st
	}
	check(t, "msn-nofence", "T0", Options{Model: memmodel.Relaxed})
	first := counts(check(t, "msn-nofence", "T0", Options{Model: memmodel.PSO}).Stats)
	for i := 1; i < 12; i++ {
		if got := counts(check(t, "msn-nofence", "T0", Options{Model: memmodel.PSO}).Stats); got != first {
			t.Fatalf("run %d: stats differ from run 0:\n got  %+v\n want %+v", i, got, first)
		}
	}
}
