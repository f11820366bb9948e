package core

import (
	"testing"
	"time"

	"checkfence/internal/bitvec"
	"checkfence/internal/encode"
	"checkfence/internal/memmodel"
	"checkfence/internal/sat"
)

// TestPreprocessPolicy pins when the inclusion formula's armed
// preprocessing pass runs: only once its search has resolved 100
// conflicts (the sat package's threshold). ms2/T0 on Relaxed is
// decided sooner and never runs it; snark/D0 on Relaxed needs more and
// runs it during search. Either way the verdict and the observation
// set are those of the same check solved without preprocessing.
func TestPreprocessPolicy(t *testing.T) {
	const threshold = 100
	plain := encode.Config{Minimize: true, OrderReduce: true}
	rows := []struct {
		impl, test   string
		pass, preran bool
	}{
		{"ms2", "T0", true, false},
		{"snark", "D0", false, true},
	}
	for _, r := range rows {
		name := r.impl + "/" + r.test
		res := check(t, r.impl, r.test, Options{Model: memmodel.Relaxed})
		ref := check(t, r.impl, r.test, Options{Model: memmodel.Relaxed, Encode: &plain})
		st, ss := res.Stats, res.Stats.SolverStats
		if ss.Preprocessed != r.preran {
			t.Errorf("%s: pass ran = %v, want %v (%d conflicts)", name, ss.Preprocessed, r.preran, ss.Conflicts)
		}
		if r.preran {
			if ss.PreprocessConflicts < threshold || ss.Conflicts <= ss.PreprocessConflicts {
				t.Errorf("%s: pass after %d of %d conflicts, want it during search, after at least %d",
					name, ss.PreprocessConflicts, ss.Conflicts, threshold)
			}
			if st.CNFClauses >= st.PreCNFClauses || st.PreprocessTime <= 0 {
				t.Errorf("%s: pass took %d clauses to %d in %v, want a shrinking pass",
					name, st.PreCNFClauses, st.CNFClauses, st.PreprocessTime)
			}
		} else {
			if ss.Conflicts >= threshold {
				t.Errorf("%s: %d conflicts without a pass", name, ss.Conflicts)
			}
			if st.PreCNFClauses != st.CNFClauses || st.PreprocessTime != 0 || ss.VarsEliminated != 0 {
				t.Errorf("%s: no pass, yet %d -> %d clauses in %v, %d vars eliminated",
					name, st.PreCNFClauses, st.CNFClauses, st.PreprocessTime, ss.VarsEliminated)
			}
		}
		if res.Pass != r.pass || ref.Pass != r.pass {
			t.Errorf("%s: pass = %v, without preprocessing %v, want %v", name, res.Pass, ref.Pass, r.pass)
		}
		if res.Spec == nil || ref.Spec == nil || !res.Spec.Equal(ref.Spec) {
			t.Errorf("%s: observation set differs from the one without preprocessing", name)
		}
	}
}

// TestRecordFormulaAddsPreprocessTime: a check reports the sum of its
// rounds' preprocessing times, as it does their refute times, which
// include them; sizes are the final round's. Each round here is a
// formula preprocessed on its own solver, as a bound round's inclusion
// formula is.
func TestRecordFormulaAddsPreprocessTime(t *testing.T) {
	var st Stats
	var sum, last time.Duration
	for round := 0; round < 2; round++ {
		s := sat.New()
		n := 2000 + 1000*round
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		// An implication chain: every inner variable is eliminable.
		for v := 0; v+1 < n; v++ {
			s.AddClause(sat.Neg(v), sat.Pos(v+1))
		}
		s.Freeze(0)
		s.Freeze(n - 1)
		if !s.Preprocess() {
			t.Fatalf("round %d: the chain is satisfiable", round)
		}
		st.recordFormula(&encode.Encoder{S: s, B: bitvec.NewBuilder(s)})
		last = s.Stats().PreprocessTime
		sum += last
		if st.PreCNFClauses != n-1 || st.CNFClauses >= st.PreCNFClauses {
			t.Errorf("round %d: sizes %d -> %d, want the round's own %d -> fewer",
				round, st.PreCNFClauses, st.CNFClauses, n-1)
		}
	}
	if st.PreprocessTime != sum || sum <= last {
		t.Errorf("PreprocessTime = %v, want the sum %v of both rounds (final round alone %v)",
			st.PreprocessTime, sum, last)
	}
}
