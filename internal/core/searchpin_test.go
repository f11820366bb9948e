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
		{"ms2", "T1", 59, 4354, 147, 9491},
		{"msn", "T0", 27, 4096, 121, 6209},
		{"snark", "D0", 172, 73243, 666, 43407},
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
