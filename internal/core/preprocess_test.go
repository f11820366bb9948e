package core

import (
	"testing"
	"time"

	"checkfence/internal/encode"
	"checkfence/internal/memmodel"
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

// TestPreprocessTimePerModel: in a sweep the armed pass runs inside
// the solve of whichever model reaches its conflict threshold, and its
// time is booked on that model, inside that model's RefuteTime; the
// models' preprocessing times add up to the shared solver's. Both rows
// are decided in one round, so the leader's solver record is the only
// inclusion formula of the group. snark/D0's leader (SC) runs the pass;
// ms2/T53's SC, TSO and PSO solves stay below the threshold, and
// Relaxed's runs it.
func TestPreprocessTimePerModel(t *testing.T) {
	rows := []struct {
		impl, test string
		ran        memmodel.Model // the model whose solve runs the pass
	}{
		{"snark", "D0", memmodel.SequentialConsistency},
		{"ms2", "T53", memmodel.Relaxed},
	}
	for _, row := range rows {
		results := RunSuite(fourModelJobs(row.impl, row.test, Options{}), SuiteOptions{Parallelism: 1})
		requireAllRan(t, results)
		var sum time.Duration
		for _, r := range results {
			st, m := r.Res.Stats, r.Job.Opts.Model
			if st.BoundRounds != 1 || st.SweepGroups != 1 {
				t.Fatalf("%s/%s on %v: %d bound rounds, sweep groups %d; want one sweep round",
					row.impl, row.test, m, st.BoundRounds, st.SweepGroups)
			}
			if st.PreprocessTime > st.RefuteTime {
				t.Errorf("%s/%s on %v: preprocessing %v outside refute time %v",
					row.impl, row.test, m, st.PreprocessTime, st.RefuteTime)
			}
			if (st.PreprocessTime > 0) != (m == row.ran) {
				t.Errorf("%s/%s on %v: preprocessing %v, want time only on %v",
					row.impl, row.test, m, st.PreprocessTime, row.ran)
			}
			sum += st.PreprocessTime
		}
		solver := results[0].Res.Stats.SolverStats
		if !solver.Preprocessed || sum != solver.PreprocessTime {
			t.Errorf("%s/%s: models' preprocessing times add up to %v; the solver's pass (ran: %v) took %v",
				row.impl, row.test, sum, solver.Preprocessed, solver.PreprocessTime)
		}
	}
}
