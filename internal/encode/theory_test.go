package encode_test

import (
	"fmt"
	"testing"

	"checkfence/internal/core"
	"checkfence/internal/encode"
	"checkfence/internal/memmodel"
)

// TestOrderTheoryMatchesEager checks whole pairs twice, once with the
// solver's order theory and once with the eager transitivity clauses,
// and requires identical verdicts and identical mined observation
// sets: on the quick Fig. 10 pairs and two failing pairs under Serial,
// SC, TSO, PSO and Relaxed one check at a time, and on one sweep
// encoder serving four models. The theory propagates exactly what the
// clauses do, so any difference is a bug in it.
func TestOrderTheoryMatchesEager(t *testing.T) {
	pairs := [][2]string{
		{"ms2", "T0"}, {"ms2", "T1"}, {"ms2", "Ti2"}, {"ms2", "Tpc2"},
		{"msn", "T0"}, {"msn", "Tpc2"}, {"lazylist", "Sac"}, {"lazylist", "Sar"},
		{"harris", "Sac"}, {"snark", "D0"}, {"msn-nofence", "T0"}, {"lazylist-bug", "Sac"},
	}
	// The largest quick pairs run on Relaxed only, where their formulas
	// are largest, and not at all under -short.
	var large [][2]string
	if !testing.Short() {
		large = [][2]string{{"msn", "Ti2"}, {"lazylist", "Saa"}, {"harris", "Saa"}, {"snark", "Da"}}
	}
	models := []memmodel.Model{memmodel.Serial, memmodel.SequentialConsistency,
		memmodel.TSO, memmodel.PSO, memmodel.Relaxed}
	sweepModels := []memmodel.Model{memmodel.SequentialConsistency,
		memmodel.TSO, memmodel.PSO, memmodel.Relaxed}

	var jobs []core.Job
	add := func(impl, test string, opts core.Options) {
		jobs = append(jobs, core.Job{Impl: impl, Test: test, Opts: opts})
	}
	for _, p := range pairs {
		for _, m := range models {
			add(p[0], p[1], core.Options{Model: m, Sweep: core.SweepOff})
		}
	}
	for _, p := range large {
		add(p[0], p[1], core.Options{Model: memmodel.Relaxed, Sweep: core.SweepOff})
	}
	for _, m := range sweepModels {
		add("msn-nofence", "Ti2", core.Options{Model: m})
	}
	run := func() []core.SuiteResult {
		// A fresh cache per run: each run mines every pair itself, once.
		cache := core.NewSpecCache("")
		js := make([]core.Job, len(jobs))
		for i, j := range jobs {
			j.Opts.SpecCache = cache
			js[i] = j
		}
		return core.RunSuite(js, core.SuiteOptions{Parallelism: 2})
	}
	theory := run()
	encode.EagerTransitivity(t)
	eager := run()

	sweeps := 0
	for i, j := range jobs {
		name := fmt.Sprintf("%s/%s/%s", j.Impl, j.Test, j.Opts.Model)
		th, ea := theory[i], eager[i]
		if th.Err != nil || ea.Err != nil {
			t.Errorf("%s: theory error %v, eager error %v", name, th.Err, ea.Err)
			continue
		}
		if th.Res.Verdict != ea.Res.Verdict || th.Res.SeqBug != ea.Res.SeqBug {
			t.Errorf("%s: theory %v (seq %v), eager %v (seq %v)", name,
				th.Res.Verdict, th.Res.SeqBug, ea.Res.Verdict, ea.Res.SeqBug)
		}
		if (th.Res.Spec == nil) != (ea.Res.Spec == nil) ||
			th.Res.Spec != nil && !th.Res.Spec.Equal(ea.Res.Spec) {
			t.Errorf("%s: mined observation sets differ", name)
		}
		if th.Res.Stats.TransitivityClauses != ea.Res.Stats.TransitivityClauses {
			t.Errorf("%s: transitivity count %d with the theory, %d eager", name,
				th.Res.Stats.TransitivityClauses, ea.Res.Stats.TransitivityClauses)
		}
		sweeps += th.Res.Stats.SweepGroups
	}
	if sweeps != len(sweepModels) {
		t.Errorf("%d results came from a sweep encoding, want %d", sweeps, len(sweepModels))
	}
}
