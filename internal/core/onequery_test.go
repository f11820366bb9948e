package core

import (
	"testing"

	"checkfence/internal/bitvec"
	"checkfence/internal/encode"
	"checkfence/internal/memmodel"
	"checkfence/internal/sat"
	"checkfence/internal/spec"
	"checkfence/internal/trace"
)

// inclusionFormula encodes the attempt's current unrolling for models
// with overflow excluded, armed for preprocessing or not.
func inclusionFormula(t *testing.T, a *attempt, models []memmodel.Model, preprocess bool) *encode.Encoder {
	t.Helper()
	cfg := encode.DefaultConfig()
	cfg.Preprocess = preprocess
	enc, err := encode.NewReusing(nil, models, a.u.Info, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(a.u.Threads); err != nil {
		t.Fatal(err)
	}
	enc.AssertNoOverflow()
	return enc
}

// satUnder solves enc under the assumptions and reports Sat.
func satUnder(t *testing.T, enc *encode.Encoder, assumptions ...sat.Lit) bool {
	t.Helper()
	switch st := enc.S.Solve(assumptions...); st {
	case sat.Sat:
		return true
	case sat.Unsat:
		return false
	default:
		t.Fatalf("solver status %v", st)
		return false
	}
}

// twoPhase answers, on a fresh unarmed formula, the two queries an
// inclusion check used to ask per model: is an error reachable
// (assuming the error literal), and, with the error literal asserted
// false and the set's observations excluded by unguarded clauses, is
// any observation left?
func twoPhase(t *testing.T, a *attempt, models []memmodel.Model, set *spec.Set) (errSat, inclSat []bool) {
	t.Helper()
	enc := inclusionFormula(t, a, models, false)
	errLit := enc.B.Lit(enc.ErrorNode())
	for _, m := range models {
		errSat = append(errSat, satUnder(t, enc, append(enc.SelectorLits(m), errLit)...))
	}
	enc.S.AddClause(errLit.Not())
	bits := func(sv encode.SymVal) []bitvec.Node {
		out := []bitvec.Node{sv.K1, sv.K0}
		for _, c := range sv.Comps {
			out = append(out, c...)
		}
		return out
	}
	for _, o := range set.All() {
		var clause []sat.Lit
		for i, ent := range a.built.Entries {
			want := bits(enc.ConstVal(o[i]))
			for j, got := range bits(enc.Envs[ent.Thread][ent.Reg]) {
				// The clause wants some bit to differ from o's constant.
				lit := enc.B.Lit(got)
				if want[j] == bitvec.True {
					lit = lit.Not()
				}
				clause = append(clause, lit)
			}
		}
		enc.S.AddClause(clause...)
	}
	for _, m := range models {
		inclSat = append(inclSat, satUnder(t, enc, enc.SelectorLits(m)...))
	}
	return errSat, inclSat
}

// TestOneQueryMatchesTwoPhase: the one inclusion query per model fails
// exactly the models on which an error is reachable or an error-free
// execution leaves the observation set, a witness it calls an error is
// one the error query finds too, and every witness validates. The
// rows are the fence-bugs rows and four passing ones, on one model and
// as a four-model sweep, at the bounds where the attempt decided them.
func TestOneQueryMatchesTwoPhase(t *testing.T) {
	type row struct {
		impl, test string
		models     []memmodel.Model
	}
	var rows []row
	for _, p := range [][2]string{
		{"ms2-nofence", "T0"}, {"msn-nofence", "T0"}, {"harris-nofence", "Sac"},
		{"lazylist-bug", "Sar"}, {"lazylist-bug", "Sac"}, {"lazylist-nofence", "Sac"},
		{"snark-nofence", "D0"}, {"snark", "D0"},
		{"msn", "T0"}, {"harris", "Sac"}, {"lazylist", "Sac"},
	} {
		rows = append(rows, row{p[0], p[1], []memmodel.Model{memmodel.Relaxed}}, row{p[0], p[1], sweepModels})
	}
	rows = append(rows, row{"msn-nofence", "T0", []memmodel.Model{memmodel.PSO}})
	for _, r := range rows {
		name := r.impl + "/" + r.test + "/" + r.models[0].String()
		if len(r.models) > 1 {
			name += "-sweep"
		}
		t.Run(name, func(t *testing.T) {
			a, results, err := runAttempt(t, r.impl, r.test, r.models, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range results {
				if res.SeqBug {
					t.Skip("a sequential bug decides the check before any inclusion query")
				}
			}
			set := freshSerialMine(t, a)
			errSat, inclSat := twoPhase(t, a, r.models, set)

			enc := inclusionFormula(t, a, r.models, true)
			sc, err := spec.NewSweepCheck(enc, a.built.Entries, set)
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range r.models {
				cex, err := sc.Check(m)
				if err != nil {
					t.Fatalf("%v: %v", m, err)
				}
				if fail := cex != nil; fail != (errSat[i] || inclSat[i]) {
					t.Errorf("%v: one query fails = %v; error query Sat = %v, inclusion query Sat = %v",
						m, fail, errSat[i], inclSat[i])
				}
				if fail := cex != nil; fail == results[i].Pass {
					t.Errorf("%v: one query fails = %v, the check's verdict is %v", m, fail, results[i].Verdict)
				}
				if cex == nil {
					continue
				}
				if cex.IsErr && !errSat[i] {
					t.Errorf("%v: error witness %q, yet the error query is Unsat", m, cex.Err)
				}
				tr := trace.Build(enc, a.built, a.u.Unrolled, cex)
				tr.Model = m
				if err := validateCex(tr, a.built, a.u.Unrolled); err != nil {
					t.Errorf("%v: %v", m, err)
				}
			}
		})
	}
}
