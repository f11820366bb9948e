package core

import (
	"testing"

	"checkfence/internal/memmodel"
)

func check(t *testing.T, impl, test string, opts Options) *Result {
	t.Helper()
	res, err := Check(impl, test, opts)
	if err != nil {
		t.Fatalf("Check(%s, %s): %v", impl, test, err)
	}
	return res
}

func TestMSNT0SCPasses(t *testing.T) {
	res := check(t, "msn", "T0", Options{Model: memmodel.SequentialConsistency})
	if !res.Pass {
		t.Fatalf("msn/T0 on SC must pass; cex:\n%v", res.Cex)
	}
	if res.Stats.ObsSetSize == 0 {
		t.Error("observation set must be non-empty")
	}
	t.Logf("obs set size=%d instrs=%d loads=%d stores=%d vars=%d clauses=%d",
		res.Stats.ObsSetSize, res.Stats.Instrs, res.Stats.Loads, res.Stats.Stores,
		res.Stats.CNFVars, res.Stats.CNFClauses)
}

func TestMSNT0RelaxedFencedPasses(t *testing.T) {
	res := check(t, "msn", "T0", Options{Model: memmodel.Relaxed})
	if !res.Pass {
		t.Fatalf("fenced msn/T0 on Relaxed must pass; cex:\n%v", res.Cex)
	}
}

func TestMSNT0RelaxedUnfencedFails(t *testing.T) {
	res := check(t, "msn-nofence", "T0", Options{Model: memmodel.Relaxed})
	if res.Pass {
		t.Fatal("unfenced msn/T0 on Relaxed must fail")
	}
	if res.Cex == nil {
		t.Fatal("failing check must produce a counterexample trace")
	}
	t.Logf("counterexample:\n%s", res.Cex)
}

// TestCexValidatesUnderAllConfigs: validation is on by default, so a
// returned counterexample has already survived the axiom re-check and
// the interpreter replay — under every solve configuration that could
// pick a different SAT model (simplification levels, preprocessing).
func TestCexValidatesUnderAllConfigs(t *testing.T) {
	configs := map[string]Options{
		"serial":  {Model: memmodel.Relaxed, ValidateTraces: ValidateOn},
		"tseitin": {Model: memmodel.Relaxed, SimplifyLevel: -1, NoPreprocess: true},
	}
	for name, opts := range configs {
		res := check(t, "msn-nofence", "T0", opts)
		if res.Pass || res.Cex == nil {
			t.Errorf("%s: expected a validated counterexample", name)
		}
	}
	// Sequential-bug traces validate too (Serial-model axioms + replay
	// reproducing the runtime error).
	res := check(t, "lazylist-bug", "Sac", Options{Model: memmodel.SequentialConsistency})
	if res.Pass || !res.SeqBug || res.Cex == nil {
		t.Error("lazylist-bug must yield a validated sequential-bug trace")
	}
	// ValidateOff still returns the raw counterexample.
	res = check(t, "msn-nofence", "T0", Options{Model: memmodel.Relaxed, ValidateTraces: ValidateOff})
	if res.Pass || res.Cex == nil {
		t.Error("ValidateOff: expected a counterexample")
	}
}

func TestMSNRefsetMatchesSATSpec(t *testing.T) {
	satRes := check(t, "msn", "T0", Options{Model: memmodel.SequentialConsistency, SpecSource: SpecSAT})
	refRes := check(t, "msn", "T0", Options{Model: memmodel.SequentialConsistency, SpecSource: SpecRef})
	if !satRes.Spec.Equal(refRes.Spec) {
		t.Errorf("SAT-mined spec (%d obs) != refset spec (%d obs)\nSAT: %v\nref: %v",
			satRes.Spec.Len(), refRes.Spec.Len(), satRes.Spec.All(), refRes.Spec.All())
	}
}
