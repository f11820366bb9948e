package checkfence_test

// TestSweepAblation is the public-API sweep ablation: the same jobs
// run as one suite, which groups them into model sweeps, and one by one
// through Check, and must produce identical verdicts, identical observation sets, and (on failures)
// counterexample traces that the independent validator accepted —
// the sweep is a pure performance transformation. The matrix covers a
// passing and a failing implementation under all five models.

import (
	"testing"

	"checkfence"
)

func sweepAblationJobs(opts checkfence.Options) []checkfence.Job {
	models := []checkfence.Model{
		checkfence.Serial, checkfence.SequentialConsistency,
		checkfence.TSO, checkfence.PSO, checkfence.Relaxed,
	}
	var jobs []checkfence.Job
	for _, it := range []struct{ impl, test string }{
		{"ms2", "T0"},         // passes under every model
		{"msn-nofence", "T0"}, // fails under the relaxed models
	} {
		for _, m := range models {
			o := opts
			o.Model = m
			jobs = append(jobs, checkfence.Job{Impl: it.impl, Test: it.test, Opts: o})
		}
	}
	return jobs
}

func runSweepAblation(t *testing.T, jobs []checkfence.Job, parallelism int) {
	t.Helper()
	swept := checkfence.CheckSuite(jobs, checkfence.SuiteOptions{
		Parallelism: parallelism,
	})
	indep := make([]checkfence.SuiteResult, len(jobs))
	for i, j := range jobs {
		res, err := checkfence.Check(j.Impl, j.Test, j.Opts)
		indep[i] = checkfence.SuiteResult{Job: j, Res: res, Err: err}
	}
	groups := 0
	for i := range jobs {
		s, n := swept[i], indep[i]
		if s.Err != nil || n.Err != nil {
			t.Fatalf("job %d (%s/%s %v): sweep err=%v, independent err=%v",
				i, jobs[i].Impl, jobs[i].Test, jobs[i].Opts.Model, s.Err, n.Err)
		}
		if s.Res.Verdict != n.Res.Verdict || s.Res.Pass != n.Res.Pass || s.Res.SeqBug != n.Res.SeqBug {
			t.Errorf("job %d (%s/%s %v): sweep verdict=%v pass=%v seqbug=%v, independent verdict=%v pass=%v seqbug=%v",
				i, jobs[i].Impl, jobs[i].Test, jobs[i].Opts.Model,
				s.Res.Verdict, s.Res.Pass, s.Res.SeqBug,
				n.Res.Verdict, n.Res.Pass, n.Res.SeqBug)
		}
		if !s.Res.Spec.Equal(n.Res.Spec) {
			t.Errorf("job %d (%s/%s %v): observation sets differ (sweep %d, independent %d)",
				i, jobs[i].Impl, jobs[i].Test, jobs[i].Opts.Model,
				s.Res.Spec.Len(), n.Res.Spec.Len())
		}
		// Traces are validated inside the pipeline (every decoded
		// counterexample is, and a sweep early-exit replay is validated
		// by construction); here it suffices that every failure carries
		// one.
		if !s.Res.Pass && s.Res.Cex == nil {
			t.Errorf("job %d: sweep failure without a counterexample", i)
		}
		if !n.Res.Pass && n.Res.Cex == nil {
			t.Errorf("job %d: independent failure without a counterexample", i)
		}
		if jobs[i].Opts.Model == checkfence.Serial && s.Res.Stats.SweepGroups != 0 {
			t.Errorf("job %d: Serial job joined a sweep group", i)
		}
		groups += s.Res.Stats.SweepGroups
	}
	if groups == 0 {
		t.Error("no job carries sweep stats: the suite never grouped")
	}
}

func TestSweepAblation(t *testing.T) {
	runSweepAblation(t, sweepAblationJobs(checkfence.Options{}), 4)
}

// TestSweepStatsShape pins the sweep's stats contract: the group's
// leader (its strongest model) carries the shared costs, every other
// member reports the reused encoding and the seeded observation count,
// and all members report the group dimensions.
func TestSweepStatsShape(t *testing.T) {
	models := []checkfence.Model{
		checkfence.SequentialConsistency, checkfence.TSO,
		checkfence.PSO, checkfence.Relaxed,
	}
	jobs := make([]checkfence.Job, len(models))
	for i, m := range models {
		jobs[i] = checkfence.Job{Impl: "ms2", Test: "T0", Opts: checkfence.Options{Model: m}}
	}
	results := checkfence.CheckSuite(jobs, checkfence.SuiteOptions{Parallelism: 2})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		st := r.Res.Stats
		if st.SweepGroups != 1 || st.SweepModels != len(models) {
			t.Errorf("job %d: SweepGroups=%d SweepModels=%d, want 1 and %d",
				i, st.SweepGroups, st.SweepModels, len(models))
		}
		if st.SelectorVars != len(models) || st.SelectorUnits <= 0 {
			t.Errorf("job %d: SelectorVars=%d SelectorUnits=%d", i, st.SelectorVars, st.SelectorUnits)
		}
		if st.TotalTime <= 0 {
			t.Errorf("job %d: TotalTime not recorded", i)
		}
		if i == 0 {
			if st.EncodeTime <= 0 || st.MineTime <= 0 {
				t.Errorf("leader: shared costs not attributed (encode %v, mine %v)",
					st.EncodeTime, st.MineTime)
			}
			if st.EncodesReused != 0 {
				t.Errorf("leader reports EncodesReused=%d", st.EncodesReused)
			}
		} else {
			if st.EncodesReused != 1 {
				t.Errorf("job %d: EncodesReused=%d, want 1", i, st.EncodesReused)
			}
			if st.SeededObs != r.Res.Spec.Len() {
				t.Errorf("job %d: SeededObs=%d, want %d", i, st.SeededObs, r.Res.Spec.Len())
			}
			if st.EncodeTime != 0 {
				t.Errorf("job %d: non-leader charged EncodeTime %v", i, st.EncodeTime)
			}
			if st.ProbeTime != 0 {
				t.Errorf("job %d: non-leader charged ProbeTime %v (shared probe cost belongs to the leader only)", i, st.ProbeTime)
			}
		}
	}
}
