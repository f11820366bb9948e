package core

import (
	"testing"

	"checkfence/internal/encode"
	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
	"checkfence/internal/refimpl"
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
// pick a different SAT model (circuit minimization, preprocessing).
func TestCexValidatesUnderAllConfigs(t *testing.T) {
	configs := map[string]Options{
		"serial":  {Model: memmodel.Relaxed},
		"tseitin": {Model: memmodel.Relaxed, Encode: &encode.Config{OrderReduce: true}},
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
}

// TestMSNRefsetMatchesSATSpec: the SAT mine over the Serial formula
// (solved as encoded, without preprocessing) finds exactly the
// observation set the reference implementations enumerate, on the 14
// quick Fig. 10 pairs of testdata/show_spec_quick.sh. The checks run
// under Serial, so each mines and runs no inclusion solve.
func TestMSNRefsetMatchesSATSpec(t *testing.T) {
	for _, p := range [][2]string{
		{"ms2", "T0"}, {"ms2", "T1"}, {"ms2", "Ti2"}, {"ms2", "Tpc2"},
		{"msn", "T0"}, {"msn", "Ti2"}, {"msn", "Tpc2"},
		{"lazylist", "Sac"}, {"lazylist", "Sar"}, {"lazylist", "Saa"},
		{"harris", "Sac"}, {"harris", "Saa"}, {"snark", "D0"}, {"snark", "Da"},
	} {
		t.Run(p[0]+"/"+p[1], func(t *testing.T) {
			res := check(t, p[0], p[1], Options{Model: memmodel.Serial})
			if res.Spec == nil {
				t.Fatal("SAT mining produced no observation set")
			}
			impl, err := harness.Get(p[0])
			if err != nil {
				t.Fatal(err)
			}
			test, err := harness.GetTest(impl, p[1])
			if err != nil {
				t.Fatal(err)
			}
			ref, err := refimpl.Enumerate(impl, test)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Spec.Equal(ref) {
				t.Errorf("SAT-mined spec != refset spec\nSAT: %v\nref: %v", res.Spec.All(), ref.All())
			}
		})
	}
}
