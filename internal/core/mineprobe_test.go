package core

import (
	"errors"
	"testing"

	"checkfence/internal/encode"
	"checkfence/internal/memmodel"
	"checkfence/internal/sat"
	"checkfence/internal/spec"
	"checkfence/internal/validate"
)

var sweepModels = []memmodel.Model{
	memmodel.SequentialConsistency, memmodel.TSO, memmodel.PSO, memmodel.Relaxed,
}

// runAttempt runs a whole attempt of a registry check over models
// (strongest first) and returns it with its results.
func runAttempt(t *testing.T, implName, testName string, models []memmodel.Model, opts Options) (*attempt, []*Result, error) {
	t.Helper()
	a := startAttempt(t, implName, testName)
	opts.Model = models[0]
	a.opts = opts
	results := newResults(a.impl, a.test, models)
	return a, results, a.run(results)
}

// freshSerialMine mines the observation set of the attempt's current
// unrolling on a Serial formula of its own, the way a round mined
// before it shared the probe's formula.
func freshSerialMine(t *testing.T, a *attempt) *spec.Set {
	t.Helper()
	cfg := encode.DefaultConfig()
	cfg.Preprocess = false
	enc := encode.NewWithConfig(memmodel.Serial, a.u.Info, cfg)
	if err := enc.Encode(a.u.Threads); err != nil {
		t.Fatal(err)
	}
	enc.AssertNoOverflow()
	set, _, err := spec.MineWith(enc, a.built.Entries, spec.Strategy{})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestMineOnProbeFormula: a round mines on the SC probe formula of its
// bounds, restricted to serial executions, and that must give the set a
// Serial formula of its own gives, at the converged bounds, on one
// model and on a four-model sweep alike. A sequential bug found there
// is still a serial trace, and a budget that stops the first probe,
// which now runs before the first round, still ends the check UNKNOWN
// with its cause.
func TestMineOnProbeFormula(t *testing.T) {
	rows := []struct{ impl, test string }{
		{"msn", "T0"}, {"harris", "Sac"}, {"lazylist", "Sac"},
	}
	for _, row := range rows {
		for _, models := range [][]memmodel.Model{{memmodel.Relaxed}, sweepModels} {
			name := row.impl + "/" + row.test + "/" + models[0].String()
			if len(models) > 1 {
				name += "-sweep"
			}
			t.Run(name, func(t *testing.T) {
				a, results, err := runAttempt(t, row.impl, row.test, models, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if a.formulas.serial != 0 || a.formulas.probe == 0 {
					t.Fatalf("formulas %+v: want every round mined on a probe", a.formulas)
				}
				want := freshSerialMine(t, a)
				for _, res := range results {
					if !res.Pass {
						t.Fatalf("%v: verdict %v, want pass", res.Model, res.Verdict)
					}
					if !res.Spec.Equal(want) {
						t.Fatalf("%v: mined %d observations on the probe formula, %d on a Serial formula",
							res.Model, res.Spec.Len(), want.Len())
					}
				}
			})
		}
	}

	// lazylist-bug/Sac's sequential bug is found by the mine on the
	// converged bounds' probe formula.
	t.Run("lazylist-bug/Sac/seq-bug", func(t *testing.T) {
		a, results, err := runAttempt(t, "lazylist-bug", "Sac", []memmodel.Model{memmodel.Relaxed}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := results[0]
		if a.formulas.serial != 0 || a.formulas.probe != res.Stats.BoundRounds || a.formulas.inclusion != 1 {
			t.Fatalf("formulas %+v over %d unrollings: want the bug mined on the converged bounds' probe",
				a.formulas, res.Stats.BoundRounds)
		}
		if !res.SeqBug || res.Cex == nil {
			t.Fatalf("verdict %v, SeqBug %v: want a sequential bug", res.Verdict, res.SeqBug)
		}
		if res.Cex.Model != memmodel.Serial {
			t.Fatalf("trace on %v, want serial", res.Cex.Model)
		}
		if err := validate.Check(res.Cex, a.u.Threads, a.built.Unit.Prog); err != nil {
			t.Fatalf("sequential-bug trace does not validate: %v", err)
		}
	})

	t.Run("first-probe-stopped", func(t *testing.T) {
		a, _, err := runAttempt(t, "harris", "Sac", []memmodel.Model{memmodel.Relaxed},
			Options{ConflictBudget: 1})
		var be *sat.ErrBudget
		if !errors.Is(err, spec.ErrSolverUnknown) || !errors.As(err, &be) || be.Kind != sat.BudgetConflicts {
			t.Fatalf("attempt error %v, want ErrSolverUnknown caused by the conflict budget", err)
		}
		if a.formulas.probe != 1 || a.formulas.inclusion != 0 {
			t.Fatalf("formulas %+v: want the first probe to stop the attempt", a.formulas)
		}
		res, err := Check("harris", "Sac", Options{Model: memmodel.Relaxed, ConflictBudget: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != VerdictUnknown || res.Budget == nil || res.Budget.Cause != sat.BudgetConflicts.String() {
			t.Fatalf("verdict %v, budget %+v: want unknown with cause conflicts", res.Verdict, res.Budget)
		}
	})
}

// TestFormulasPerAttempt pins the formulas an attempt encodes: one SC
// probe per probed unrolling, which the round at its bounds mines on,
// one inclusion formula per round, and a Serial formula of its own
// only for an unrolling that is never probed (no loop can overflow).
func TestFormulasPerAttempt(t *testing.T) {
	rows := []struct {
		impl, test               string
		models                   []memmodel.Model
		probe, serial, inclusion int
	}{
		{"msn", "T0", []memmodel.Model{memmodel.Relaxed}, 2, 0, 2},
		{"msn", "T0", sweepModels, 2, 0, 2},
		{"ms2", "T0", []memmodel.Model{memmodel.Relaxed}, 0, 1, 1},
		{"msn-nofence", "T0", []memmodel.Model{memmodel.Relaxed}, 1, 0, 1},
	}
	for _, row := range rows {
		a, results, err := runAttempt(t, row.impl, row.test, row.models, Options{})
		if err != nil {
			t.Fatal(err)
		}
		f := a.formulas
		if f.probe != row.probe || f.serial != row.serial || f.inclusion != row.inclusion {
			t.Errorf("%s/%s over %v: probe/serial/inclusion formulas %d/%d/%d, want %d/%d/%d",
				row.impl, row.test, row.models, f.probe, f.serial, f.inclusion,
				row.probe, row.serial, row.inclusion)
		}
		if f.probe > 0 && f.probe != results[0].Stats.BoundRounds {
			t.Errorf("%s/%s: %d probes over %d unrollings, want one each",
				row.impl, row.test, f.probe, results[0].Stats.BoundRounds)
		}
	}
}
