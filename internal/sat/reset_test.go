package sat

import (
	"math/rand"
	"testing"
	"time"
)

// resetScriptA uses every setting Reset must undo: an order theory,
// conflict and deadline budgets, a stop predicate, frozen and
// eliminated variables, learnt clauses, solves under assumptions and a
// relocation of the region. It leaves the solver mid-way, with the
// last Solve stopped by its conflict budget.
func resetScriptA(s *Solver, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	in := randomOrder(rng, 5, 6)
	newVars(s, 110)
	s.SetOrder(in.n, in.lit)
	s.SetDeadline(time.Now().Add(time.Hour))
	s.SetStop(func() bool { return false })
	s.search.chrono = 1
	s.BulkLoad()
	for _, cl := range randomCNF(rng, 110, 440, 3) {
		s.AddClause(cl...)
	}
	for v := 0; v < 110; v += 5 {
		s.Freeze(v)
	}
	s.Preprocess()
	s.SetBudget(10)
	s.Solve(Pos(0), Neg(5))
	s.garbageCollect()
	s.Solve()
}

// resetScriptB runs the same script on any solver and records what
// Reset must make equal: every answer, every model value and the
// final counters. Its formula needs more than script A's 10 conflicts,
// so a budget that survived Reset would show.
func resetScriptB(s *Solver, n int, seed int64) ([]Status, [][]bool, Stats) {
	rng := rand.New(rand.NewSource(seed))
	in := randomOrder(rng, 4, 5)
	newVars(s, n)
	s.SetOrder(in.n, in.lit)
	s.BulkLoad()
	for _, cl := range randomCNF(rng, n, n*42/10, 3) {
		s.AddClause(cl...)
	}
	for v := 0; v < n; v += 3 {
		s.Freeze(v)
	}
	s.Preprocess()
	var answers []Status
	var models [][]bool
	record := func(st Status) {
		answers = append(answers, st)
		if st != Sat {
			return
		}
		m := make([]bool, n)
		for v := range m {
			m[v] = s.Value(v)
		}
		models = append(models, m)
	}
	record(s.Solve(Pos(0), Neg(3)))
	for i := 0; i < 3; i++ {
		st := s.Solve()
		record(st)
		if st != Sat {
			break
		}
		var block []Lit
		for v := 0; v < n; v += 3 {
			block = append(block, MkLit(v, s.Value(v)))
		}
		s.AddClause(block...)
	}
	return answers, models, s.Stats()
}

// TestResetMatchesFresh: after Reset, a solver that ran script A runs
// script B exactly as a fresh solver does — same answers, same models,
// same counters — whether B's formula is smaller or larger than A's.
func TestResetMatchesFresh(t *testing.T) {
	for _, n := range []int{80, 110, 200} {
		for seed := int64(1); seed <= 3; seed++ {
			wantAns, wantModels, wantStats := resetScriptB(New(), n, seed)
			wantStats.PreprocessTime = 0

			s := New()
			resetScriptA(s, seed+10)
			s.Reset()
			if s.BudgetErr() != nil || len(s.clauses) != 0 || len(s.ca.mem) != 0 || len(s.bins) != 0 || s.ord != nil {
				t.Fatalf("n=%d seed %d: Reset left state behind", n, seed)
			}
			ans, models, st := resetScriptB(s, n, seed)
			st.PreprocessTime = 0
			if len(ans) != len(wantAns) || st != wantStats {
				t.Fatalf("n=%d seed %d: after Reset answers %v, stats %+v\nfresh answers %v, stats %+v",
					n, seed, ans, st, wantAns, wantStats)
			}
			for i := range ans {
				if ans[i] != wantAns[i] {
					t.Fatalf("n=%d seed %d: answer %d is %v after Reset, %v fresh", n, seed, i, ans[i], wantAns[i])
				}
			}
			for i := range models {
				for v := range models[i] {
					if models[i][v] != wantModels[i][v] {
						t.Fatalf("n=%d seed %d: model %d differs at variable %d", n, seed, i, v)
					}
				}
			}
			if wantStats.Conflicts <= 10 {
				t.Errorf("n=%d seed %d: %d conflicts; script B must outlast script A's budget", n, seed, wantStats.Conflicts)
			}
		}
	}
}

// TestResetKeepsVariableCapacity: Reset keeps the per-variable arrays,
// so loading a formula no larger than the last grows none of them.
func TestResetKeepsVariableCapacity(t *testing.T) {
	s := New()
	addCNF(s, 500, randomCNF(rand.New(rand.NewSource(1)), 500, 1000, 3))
	s.Solve()
	if n := testing.AllocsPerRun(5, func() {
		s.Reset()
		for range 500 {
			s.NewVar()
		}
	}); n != 0 {
		t.Errorf("re-creating 500 variables after Reset allocates %v times, want 0", n)
	}
}
