package checkfence_test

// TestMinimizationDifferential runs whole checks twice — once with
// the formula-minimization pipeline (AIG rewriting, polarity-aware
// encoding, CNF preprocessing) and once with classic Tseitin and no
// preprocessing — and requires bit-identical verdicts, identical
// mined observation sets, and valid counterexamples. Minimization is
// an encoding concern; any observable difference is a soundness bug.

import (
	"runtime"
	"testing"

	"checkfence"
	"checkfence/internal/encode"
)

func TestMinimizationDifferential(t *testing.T) {
	type pair struct {
		impl, test string
		models     []checkfence.Model
	}
	all := []checkfence.Model{
		checkfence.SequentialConsistency, checkfence.TSO,
		checkfence.PSO, checkfence.Relaxed,
	}
	scRelaxed := []checkfence.Model{checkfence.SequentialConsistency, checkfence.Relaxed}
	pairs := []pair{
		{"ms2", "T0", all},
		{"msn", "T0", all},
		{"lazylist", "Sac", all},
		{"harris", "Sac", scRelaxed},
		{"snark", "D0", scRelaxed},       // fails on relaxed: verdicts must still agree
		{"msn-nofence", "T0", scRelaxed}, // fails: exercises counterexample extraction
		{"ms2-nofence", "T0", scRelaxed},
	}
	if !testing.Short() {
		pairs = append(pairs, pair{"msn", "Ti2", []checkfence.Model{checkfence.Relaxed}})
	}

	// Classic Tseitin without preprocessing; the order reduction stays
	// on.
	plain := &encode.Config{OrderReduce: true}
	var jobs []checkfence.Job
	for _, p := range pairs {
		for _, m := range p.models {
			// Private caches: both configurations must actually mine.
			jobs = append(jobs,
				checkfence.Job{Impl: p.impl, Test: p.test, Opts: checkfence.Options{
					Model: m, SpecCache: checkfence.NewSpecCache("")}},
				checkfence.Job{Impl: p.impl, Test: p.test, Opts: checkfence.Options{
					Model: m, Encode: plain,
					SpecCache: checkfence.NewSpecCache("")}})
		}
	}
	results := checkfence.CheckSuite(jobs, checkfence.SuiteOptions{
		Parallelism: runtime.GOMAXPROCS(0),
	})

	for i := 0; i+1 < len(results); i += 2 {
		on, off := results[i], results[i+1]
		name := on.Job.Impl + "/" + on.Job.Test + "/" + on.Job.Opts.Model.String()
		if on.Err != nil || off.Err != nil {
			t.Errorf("%s: minimized err=%v, plain err=%v", name, on.Err, off.Err)
			continue
		}
		if on.Res.Pass != off.Res.Pass || on.Res.SeqBug != off.Res.SeqBug {
			t.Errorf("%s: verdicts differ: minimized pass=%v seqbug=%v, plain pass=%v seqbug=%v",
				name, on.Res.Pass, on.Res.SeqBug, off.Res.Pass, off.Res.SeqBug)
		}
		if (on.Res.Spec == nil) != (off.Res.Spec == nil) {
			t.Errorf("%s: only one run mined an observation set", name)
		} else if on.Res.Spec != nil && !on.Res.Spec.Equal(off.Res.Spec) {
			t.Errorf("%s: observation sets differ (%d vs %d)",
				name, on.Res.Spec.Len(), off.Res.Spec.Len())
		}
		for which, r := range map[string]*checkfence.Result{"minimized": on.Res, "plain": off.Res} {
			if r.Pass {
				continue
			}
			if r.Cex == nil {
				t.Errorf("%s: %s run failed without a counterexample", name, which)
				continue
			}
			if !r.Cex.IsErr && r.Spec != nil && r.Spec.Has(r.Cex.Observation) {
				t.Errorf("%s: %s counterexample observation is inside the specification", name, which)
			}
		}
	}
}
