package checkfence_test

// TestInprocessAblation runs whole checks four ways — both features
// on (the default), inprocessing off, order reduction off, and both
// off — and requires bit-identical verdicts and identical mined
// observation sets. Inprocessing rewrites only the solver's learnt
// database and the order reduction only renames/fixes equivalent
// order variables, so any observable difference is a soundness bug in
// one of them.

import (
	"fmt"
	"runtime"
	"testing"

	"checkfence"
	"checkfence/internal/encode"
)

func TestInprocessAblation(t *testing.T) {
	type pair struct {
		impl, test string
		model      checkfence.Model
	}
	pairs := []pair{
		{"ms2", "T0", checkfence.SequentialConsistency},
		{"ms2", "T0", checkfence.Relaxed},
		{"msn", "T0", checkfence.TSO},
		{"lazylist", "Sac", checkfence.PSO},
		{"msn-nofence", "T0", checkfence.Relaxed}, // fails: ablations must agree on the failure
	}
	variants := []struct {
		name string
		opts checkfence.Options
	}{
		{"default", checkfence.Options{}},
		{"no-inprocess", checkfence.Options{Encode: &encode.Config{
			Minimize: true, Preprocess: true, OrderReduce: true}}},
		{"no-order-reduce", checkfence.Options{Encode: &encode.Config{
			Minimize: true, Preprocess: true, Inprocess: true}}},
		{"both-off", checkfence.Options{Encode: &encode.Config{
			Minimize: true, Preprocess: true}}},
	}

	var jobs []checkfence.Job
	var names []string
	for _, p := range pairs {
		for _, v := range variants {
			opts := v.opts
			opts.Model = p.model
			// Private caches: every variant must actually mine.
			opts.SpecCache = checkfence.NewSpecCache("")
			jobs = append(jobs, checkfence.Job{Impl: p.impl, Test: p.test, Opts: opts})
			names = append(names, fmt.Sprintf("%s/%s/%s/%s", p.impl, p.test, p.model, v.name))
		}
	}
	results := checkfence.CheckSuite(jobs, checkfence.SuiteOptions{
		Parallelism: runtime.GOMAXPROCS(0),
	})

	for i := 0; i+len(variants)-1 < len(results); i += len(variants) {
		base := results[i]
		if base.Err != nil {
			t.Errorf("%s: %v", names[i], base.Err)
			continue
		}
		for off := 1; off < len(variants); off++ {
			abl, name := results[i+off], names[i+off]
			if abl.Err != nil {
				t.Errorf("%s: %v", name, abl.Err)
				continue
			}
			if abl.Res.Pass != base.Res.Pass || abl.Res.SeqBug != base.Res.SeqBug {
				t.Errorf("%s: verdict differs from default: pass=%v seqbug=%v, default pass=%v seqbug=%v",
					name, abl.Res.Pass, abl.Res.SeqBug, base.Res.Pass, base.Res.SeqBug)
			}
			if (abl.Res.Spec == nil) != (base.Res.Spec == nil) {
				t.Errorf("%s: only one ablation mined an observation set", name)
			} else if abl.Res.Spec != nil && !abl.Res.Spec.Equal(base.Res.Spec) {
				t.Errorf("%s: observation set differs from default (%d vs %d)",
					name, abl.Res.Spec.Len(), base.Res.Spec.Len())
			}
			if !abl.Res.Pass && abl.Res.Cex == nil {
				t.Errorf("%s: failed without a counterexample", name)
			}
		}
		// The ablation knobs must actually reach the solver: the default
		// run of a nontrivial check does inprocessing work and reduces
		// order variables; the ablated runs must report none.
		if base.Res.Stats.OrderVarsFixed+base.Res.Stats.OrderVarsMerged == 0 {
			t.Errorf("%s: default run reduced no order variables", names[i])
		}
		for off := 1; off < len(variants); off++ {
			abl, name := results[i+off], names[i+off]
			if abl.Err != nil {
				continue
			}
			switch variants[off].name {
			case "no-inprocess", "both-off":
				if abl.Res.Stats.SubsumedLearnts+abl.Res.Stats.ChronoBacktracks != 0 {
					t.Errorf("%s: inprocessing counters nonzero with inprocessing off", name)
				}
			}
			switch variants[off].name {
			case "no-order-reduce", "both-off":
				if abl.Res.Stats.OrderVarsFixed+abl.Res.Stats.OrderVarsMerged != 0 {
					t.Errorf("%s: order-reduction counters nonzero with the reduction off", name)
				}
			}
		}
	}
}
