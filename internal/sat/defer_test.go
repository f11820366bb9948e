package sat

import (
	"errors"
	"fmt"
	"testing"
)

// TestDeferredEmissionAfterPreprocess: a Defer emission runs once,
// right after Preprocess has rebuilt the database. The preprocessor
// never sees its clauses, PreClauses counts them, and the search
// solves the whole formula.
func TestDeferredEmissionAfterPreprocess(t *testing.T) {
	s := New()
	v := newVars(s, 3)
	for _, x := range v {
		s.Freeze(x)
	}
	s.AddClause(Pos(v[0]), Pos(v[1]))
	runs, preSeen := 0, -1
	s.Defer(func() error {
		runs++
		preSeen = s.Stats().PreClauses
		// Subsumed by (a ∨ b): preprocessing would have removed it.
		s.AddClause(Pos(v[0]), Pos(v[1]), Pos(v[2]))
		// Forces a false, so every model sets b.
		s.AddClause(Neg(v[0]))
		return nil
	})
	if !s.Preprocess() {
		t.Fatal("preprocess reported unsat")
	}
	if runs != 1 || preSeen != 1 {
		t.Fatalf("emission runs = %d, saw PreClauses = %d; want one run after preprocessing saw 1 clause", runs, preSeen)
	}
	st := s.Stats()
	if st.ClausesSubsumed != 0 {
		t.Errorf("ClausesSubsumed = %d: the preprocessor saw a deferred clause", st.ClausesSubsumed)
	}
	// The unit is not stored: it is enqueued at the root.
	if st.PreClauses != 2 || st.Clauses != 2 {
		t.Errorf("PreClauses/Clauses = %d/%d, want 2/2", st.PreClauses, st.Clauses)
	}
	for i := 0; i < 2; i++ {
		if got := s.Solve(); got != Sat || s.Value(v[0]) || !s.Value(v[1]) {
			t.Fatalf("solve %d = %v (a=%v b=%v), want Sat with ¬a, b", i, got, s.Value(v[0]), s.Value(v[1]))
		}
	}
	if runs != 1 {
		t.Errorf("emission ran %d times, want once", runs)
	}
}

// TestDeferredEmissionAtFirstSolve: without Preprocess the emission
// runs on entry to the first Solve, once, and its clauses decide the
// answer.
func TestDeferredEmissionAtFirstSolve(t *testing.T) {
	s := New()
	v := newVars(s, 2)
	s.AddClause(Pos(v[0]), Pos(v[1]))
	runs := 0
	s.Defer(func() error {
		runs++
		s.AddClause(Neg(v[0]), Neg(v[1]))
		s.AddClause(Pos(v[0]), Neg(v[1]))
		return nil
	})
	if runs != 0 || s.NumClauses() != 1 {
		t.Fatalf("emission ran before the first Solve (runs %d, clauses %d)", runs, s.NumClauses())
	}
	if got := s.Solve(); got != Sat || !s.Value(v[0]) || s.Value(v[1]) {
		t.Fatalf("Solve = %v, want Sat with a, ¬b", got)
	}
	if got := s.Solve(Pos(v[1])); got != Unsat {
		t.Fatalf("Solve(b) = %v, want Unsat", got)
	}
	if st := s.Stats(); runs != 1 || st.Clauses != 3 || st.PreClauses != 0 {
		t.Errorf("runs = %d, Clauses = %d, PreClauses = %d; want 1, 3, 0", runs, st.Clauses, st.PreClauses)
	}
}

// TestDeferredEmissionRootUnsat: a formula Preprocess proves UNSAT at
// the root stays UNSAT; the emission is never needed and never runs.
func TestDeferredEmissionRootUnsat(t *testing.T) {
	s := New()
	v := newVars(s, 2)
	s.Freeze(v[0])
	s.AddClause(Pos(v[0]), Pos(v[1]))
	s.AddClause(Pos(v[0]), Neg(v[1]))
	s.AddClause(Neg(v[0]), Pos(v[1]))
	s.AddClause(Neg(v[0]), Neg(v[1]))
	runs := 0
	s.Defer(func() error {
		runs++
		s.AddClause(Pos(v[0]))
		return nil
	})
	if s.Preprocess() {
		t.Fatal("preprocess missed the root conflict")
	}
	for i := 0; i < 2; i++ {
		if got := s.Solve(); got != Unsat {
			t.Fatalf("solve %d = %v, want Unsat", i, got)
		}
	}
	if runs != 0 {
		t.Errorf("emission ran %d times on a root-UNSAT formula", runs)
	}
}

// TestDeferredEmissionError: an emission that fails leaves the formula
// incomplete, so every Solve answers Unknown — never Sat or Unsat,
// even when the partial formula is already contradictory — and
// BudgetErr carries the typed cause the error wraps.
func TestDeferredEmissionError(t *testing.T) {
	for _, preprocess := range []bool{false, true} {
		t.Run(fmt.Sprintf("preprocess=%v", preprocess), func(t *testing.T) {
			s := New()
			v := newVars(s, 2)
			s.Freeze(v[0])
			s.Freeze(v[1])
			s.AddClause(Pos(v[0]), Pos(v[1]))
			cause := &ErrBudget{Kind: BudgetDeadline}
			s.Defer(func() error {
				s.AddClause(Neg(v[0]))
				s.AddClause(Neg(v[1]))
				return fmt.Errorf("emission aborted: %w", cause)
			})
			if preprocess && !s.Preprocess() {
				t.Fatal("preprocess reported unsat")
			}
			for i := 0; i < 2; i++ {
				if got := s.Solve(); got != Unknown {
					t.Fatalf("solve %d = %v, want Unknown", i, got)
				}
				if be := s.BudgetErr(); be != cause {
					t.Fatalf("solve %d: BudgetErr = %v, want the emission's cause", i, be)
				}
			}
		})
	}
	// A cause without a budget reads like an external stop.
	s := New()
	s.NewVar()
	s.Defer(func() error { return errors.New("cancelled") })
	if got := s.Solve(); got != Unknown || s.BudgetErr() != nil {
		t.Fatalf("Solve = %v, BudgetErr = %v; want Unknown, nil", got, s.BudgetErr())
	}
}
