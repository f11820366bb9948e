package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// TestBulkIntakeAgrees: a formula loaded in bulk and then preprocessed
// is exactly the formula eager intake gives (so bulk intake meets the
// TestPreprocessPinned digests), and the search over it is the same,
// counter for counter.
func TestBulkIntakeAgrees(t *testing.T) {
	type instance struct {
		name   string
		n      int
		cnf    [][]Lit
		frozen []int
	}
	var cases []instance
	for i, size := range [][2]int{{40, 100}, {60, 150}, {80, 240}, {120, 300}, {200, 600}, {300, 1000}} {
		var frozen []int
		for v := 0; v < size[0]; v += 7 {
			frozen = append(frozen, v)
		}
		cases = append(cases, instance{"pinned", size[0], pinnedCNF(int64(i+1), size[0], size[1]), frozen})
	}
	n, cnf, frozen := structuredCNF()
	cases = append(cases, instance{"structured", n, cnf, frozen})
	// Random 3-CNF near the satisfiability threshold, with units
	// spread through the clause list, so eager intake propagates
	// mid-load and the search meets conflicts.
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, m := 90, 380
		var cnf [][]Lit
		for i := 0; i < m; i++ {
			if i%60 == 30 {
				cnf = append(cnf, []Lit{MkLit(rng.Intn(n), rng.Intn(2) == 1)})
			}
			cnf = append(cnf, []Lit{MkLit(rng.Intn(n), rng.Intn(2) == 1),
				MkLit(rng.Intn(n), rng.Intn(2) == 1), MkLit(rng.Intn(n), rng.Intn(2) == 1)})
		}
		cases = append(cases, instance{"threshold", n, cnf, []int{0, 1, 2, 3}})
	}
	for i, c := range cases {
		eagerDigest, eager := intakeDigest(t, c.n, c.cnf, c.frozen, false)
		bulkDigest, bulk := intakeDigest(t, c.n, c.cnf, c.frozen, true)
		if bulkDigest != eagerDigest {
			t.Errorf("%s %d: bulk digest %#x, eager %#x", c.name, i, bulkDigest, eagerDigest)
			continue
		}
		if got, want := bulk.Solve(), eager.Solve(); got != want {
			t.Errorf("%s %d: bulk Solve = %v, eager %v", c.name, i, got, want)
			continue
		}
		counters := func(st Stats) [5]int64 {
			return [5]int64{st.Conflicts, st.Decisions, st.Propagations, st.Restarts, int64(st.Clauses)}
		}
		if got, want := counters(bulk.Stats()), counters(eager.Stats()); got != want {
			t.Errorf("%s %d: bulk conflicts/decisions/propagations/restarts/clauses %v, eager %v", c.name, i, got, want)
		}
	}
}

// TestBulkIntakeWithoutPreprocess: a bulk-loaded formula solved
// without Preprocess attaches and propagates at its first Solve, and
// agrees with brute force, before and after clauses added between
// solves.
func TestBulkIntakeWithoutPreprocess(t *testing.T) {
	// The pending units conflict with a stored clause: only the
	// propagation at the first Solve sees it.
	s := New()
	s.BulkLoad()
	v := newVars(s, 2)
	s.AddClause(Pos(v[0]), Pos(v[1]))
	s.AddClause(Neg(v[0]))
	s.AddClause(Neg(v[1]))
	for i := 0; i < 2; i++ {
		if got := s.Solve(); got != Unsat {
			t.Fatalf("(a∨b)∧¬a∧¬b: solve %d = %v, want Unsat", i, got)
		}
	}

	rng := rand.New(rand.NewSource(27))
	for iter := 0; iter < 300; iter++ {
		n := 3 + rng.Intn(10)
		clause := func() []Lit {
			c := make([]Lit, 1+rng.Intn(3))
			for j := range c {
				c[j] = MkLit(rng.Intn(n), rng.Intn(2) == 0)
			}
			return c
		}
		s := New()
		s.BulkLoad()
		newVars(s, n)
		var clauses [][]Lit
		for round := 0; round < 3; round++ {
			for k := rng.Intn(3 * n); k >= 0; k-- {
				c := clause()
				clauses = append(clauses, c)
				s.AddClause(c...)
			}
			got, want := s.Solve(), bruteForce(n, clauses)
			if (got == Sat) != want {
				t.Fatalf("iter %d round %d: Solve = %v, brute force sat=%v\nclauses %v", iter, round, got, want, clauses)
			}
			if got != Sat {
				break
			}
			for _, c := range clauses {
				if !slices.ContainsFunc(c, s.ValueLit) {
					t.Fatalf("iter %d round %d: model falsifies %v", iter, round, c)
				}
			}
		}
	}
}
