package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// TestAddClauseCopiesInput: AddClause copies its argument, so a caller
// that reuses one buffer for every clause builds the same formula as
// one that passes a fresh slice each time.
func TestAddClauseCopiesInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cnf := randomCNF(rng, 12, 40, 3)

	fresh, reused := New(), New()
	newVars(fresh, 12)
	newVars(reused, 12)
	var buf []Lit
	for _, cl := range cnf {
		fresh.AddClause(slices.Clone(cl)...)
		buf = append(buf[:0], cl...)
		reused.AddClause(buf...)
		// Scribble over the buffer: the clause just added must not change.
		for i := range buf {
			buf[i] = buf[i].Not()
		}
	}
	if len(fresh.clauses) != len(reused.clauses) {
		t.Fatalf("clause counts differ: %d vs %d", len(fresh.clauses), len(reused.clauses))
	}
	for i := range fresh.clauses {
		if !slices.Equal(fresh.clauses[i].lits, reused.clauses[i].lits) {
			t.Fatalf("clause %d: %v vs %v", i, fresh.clauses[i].lits, reused.clauses[i].lits)
		}
	}
	if got, want := reused.Solve(), fresh.Solve(); got != want {
		t.Fatalf("reused-buffer formula %v, fresh-slice formula %v", got, want)
	}
}

// TestAddClauseAllocs: in steady state, adding a short clause takes
// its storage from the solver's arenas and scratch buffer, so it
// averages well under one allocation per call.
func TestAddClauseAllocs(t *testing.T) {
	const n = 16
	s := New()
	newVars(s, n)
	i := 0
	add := func() {
		a, b, c := i%n, (i+1+i/n)%n, (i+5)%n
		s.AddClause(Pos(a), Neg(b), MkLit(c, i&1 == 1))
		i++
	}
	for j := 0; j < 20000; j++ {
		add() // warm the arenas and grow the watch lists
	}
	if avg := testing.AllocsPerRun(2000, add); avg > 0.1 {
		t.Fatalf("AddClause allocates %.3f times per call, want < 0.1", avg)
	}
}

// TestPreprocessCloneAgreesWithBruteForce: Preprocess rebuilds the
// database into bulk-allocated clauses and watch lists; solving the
// rebuilt formula must agree with exhaustive enumeration and with an
// unpreprocessed solver, and its extended model must satisfy every
// original clause.
func TestPreprocessCloneAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 300; iter++ {
		numVars := 3 + rng.Intn(10)
		clauses := make([][]Lit, 1+rng.Intn(5*numVars))
		for i := range clauses {
			c := make([]Lit, 1+rng.Intn(4))
			for j := range c {
				c[j] = MkLit(rng.Intn(numVars), rng.Intn(2) == 0)
			}
			clauses[i] = c
		}
		plain, pre := New(), New()
		newVars(plain, numVars)
		newVars(pre, numVars)
		for _, c := range clauses {
			plain.AddClause(c...)
			pre.AddClause(c...)
		}
		pre.Preprocess()

		got := pre.Solve()
		if want := bruteForce(numVars, clauses); (got == Sat) != want {
			t.Fatalf("iter %d: preprocessed=%v brute=%v (clauses=%v)", iter, got, want, clauses)
		}
		if want := plain.Solve(); got != want {
			t.Fatalf("iter %d: preprocessed=%v unpreprocessed=%v", iter, got, want)
		}
		if got != Sat {
			continue
		}
		for ci, c := range clauses {
			if !slices.ContainsFunc(c, pre.ValueLit) {
				t.Fatalf("iter %d: extended model falsifies original clause %d: %v", iter, ci, c)
			}
		}
	}
}
