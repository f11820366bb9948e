package sat

import (
	"math/rand"
	"testing"
)

func TestLitBasics(t *testing.T) {
	l := Pos(3)
	if l.Var() != 3 || l.Sign() {
		t.Errorf("Pos(3): var=%d sign=%v", l.Var(), l.Sign())
	}
	n := l.Not()
	if n.Var() != 3 || !n.Sign() {
		t.Errorf("Not: var=%d sign=%v", n.Var(), n.Sign())
	}
	if n.Not() != l {
		t.Error("double negation")
	}
	if MkLit(5, true) != Neg(5) || MkLit(5, false) != Pos(5) {
		t.Error("MkLit mismatch")
	}
}

func TestTrivialSat(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(Pos(a), Pos(b))
	s.AddClause(Neg(a))
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	if s.Value(a) {
		t.Error("a must be false")
	}
	if !s.Value(b) {
		t.Error("b must be true")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(Pos(a))
	s.AddClause(Neg(a))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
	// Once unsat at root, it stays unsat.
	if got := s.Solve(); got != Unsat {
		t.Fatalf("second Solve = %v, want Unsat", got)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	s.NewVar()
	if s.AddClause() {
		t.Error("adding the empty clause must report false")
	}
	if s.Solve() != Unsat {
		t.Error("empty clause must make formula Unsat")
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(Pos(a), Neg(a)) {
		t.Error("tautology must be accepted")
	}
	if s.NumClauses() != 0 {
		t.Error("tautology must not be stored")
	}
	if s.Solve() != Sat {
		t.Error("tautology-only formula must be Sat")
	}
}

func TestDuplicateLiterals(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(Pos(a), Pos(a), Pos(b))
	s.AddClause(Neg(a), Neg(a))
	s.AddClause(Neg(b), Neg(b), Neg(b))
	if s.Solve() != Unsat {
		t.Error("want Unsat")
	}
}

// TestPigeonhole checks the classic hard UNSAT family: n+1 pigeons in
// n holes.
func TestPigeonhole(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := New()
		// p[i][j]: pigeon i sits in hole j.
		p := make([][]int, n+1)
		for i := range p {
			p[i] = make([]int, n)
			for j := range p[i] {
				p[i][j] = s.NewVar()
			}
		}
		for i := 0; i <= n; i++ {
			lits := make([]Lit, n)
			for j := 0; j < n; j++ {
				lits[j] = Pos(p[i][j])
			}
			s.AddClause(lits...)
		}
		for j := 0; j < n; j++ {
			for i1 := 0; i1 <= n; i1++ {
				for i2 := i1 + 1; i2 <= n; i2++ {
					s.AddClause(Neg(p[i1][j]), Neg(p[i2][j]))
				}
			}
		}
		if got := s.Solve(); got != Unsat {
			t.Fatalf("pigeonhole(%d) = %v, want Unsat", n, got)
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	c := s.NewVar()
	s.AddClause(Neg(a), Pos(b))
	s.AddClause(Neg(b), Pos(c))

	if got := s.Solve(Pos(a), Neg(c)); got != Unsat {
		t.Fatalf("a ∧ ¬c should be Unsat under implications, got %v", got)
	}
	// The formula itself must remain satisfiable afterwards.
	if got := s.Solve(Pos(a)); got != Sat {
		t.Fatalf("Solve(a) = %v, want Sat", got)
	}
	if !s.Value(b) || !s.Value(c) {
		t.Error("a must imply b and c")
	}
	if got := s.Solve(Neg(c), Pos(a)); got != Unsat {
		t.Fatalf("order of assumptions must not matter, got %v", got)
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("unassumed formula must stay Sat, got %v", got)
	}
}

func TestIncrementalBlocking(t *testing.T) {
	// Enumerate all models of a 4-variable formula by blocking
	// clauses, the same loop the specification miner runs.
	s := New()
	vars := make([]int, 4)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	// Constraint: v0 xor v1 (2 choices) and v2 or v3 (3 choices).
	s.AddClause(Pos(vars[0]), Pos(vars[1]))
	s.AddClause(Neg(vars[0]), Neg(vars[1]))
	s.AddClause(Pos(vars[2]), Pos(vars[3]))

	count := 0
	for s.Solve() == Sat {
		count++
		if count > 10 {
			t.Fatal("enumeration did not terminate")
		}
		block := make([]Lit, len(vars))
		for i, v := range vars {
			block[i] = MkLit(v, s.Value(v))
		}
		s.AddClause(block...)
	}
	if count != 6 {
		t.Errorf("model count = %d, want 6", count)
	}
}

func TestBudget(t *testing.T) {
	s := New()
	// A pigeonhole instance large enough to need > 1 conflict.
	n := 7
	p := make([][]int, n+1)
	for i := range p {
		p[i] = make([]int, n)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i <= n; i++ {
		lits := make([]Lit, n)
		for j := 0; j < n; j++ {
			lits[j] = Pos(p[i][j])
		}
		s.AddClause(lits...)
	}
	for j := 0; j < n; j++ {
		for i1 := 0; i1 <= n; i1++ {
			for i2 := i1 + 1; i2 <= n; i2++ {
				s.AddClause(Neg(p[i1][j]), Neg(p[i2][j]))
			}
		}
	}
	s.SetBudget(1)
	if got := s.Solve(); got != Unknown {
		t.Fatalf("budgeted Solve = %v, want Unknown", got)
	}
	s.SetBudget(0)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("unbudgeted Solve = %v, want Unsat", got)
	}
}

// bruteForce decides satisfiability of a small CNF by enumeration and
// returns whether it is satisfiable.
func bruteForce(numVars int, clauses [][]Lit) bool {
	for m := 0; m < 1<<numVars; m++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				bit := m>>l.Var()&1 == 1
				if bit != l.Sign() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestRandomAgainstBruteForce cross-checks the CDCL solver against
// exhaustive enumeration on random 3-SAT instances around the phase
// transition.
func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for iter := 0; iter < 300; iter++ {
		numVars := 3 + rng.Intn(10)
		numClauses := 1 + rng.Intn(5*numVars)
		clauses := make([][]Lit, numClauses)
		for i := range clauses {
			width := 1 + rng.Intn(3)
			c := make([]Lit, width)
			for j := range c {
				c[j] = MkLit(rng.Intn(numVars), rng.Intn(2) == 0)
			}
			clauses[i] = c
		}
		s := New()
		for v := 0; v < numVars; v++ {
			s.NewVar()
		}
		for _, c := range clauses {
			s.AddClause(c...)
		}
		got := s.Solve()
		want := bruteForce(numVars, clauses)
		if (got == Sat) != want {
			t.Fatalf("iter %d: solver=%v brute=%v (vars=%d clauses=%v)",
				iter, got, want, numVars, clauses)
		}
		if got == Sat {
			// Verify the model actually satisfies every clause.
			for ci, c := range clauses {
				ok := false
				for _, l := range c {
					if s.ValueLit(l) {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("iter %d: model does not satisfy clause %d", iter, ci)
				}
			}
		}
	}
}

// TestRandomIncremental checks that adding clauses between solves
// behaves like solving the union from scratch.
func TestRandomIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(999))
	for iter := 0; iter < 100; iter++ {
		numVars := 4 + rng.Intn(8)
		s := New()
		for v := 0; v < numVars; v++ {
			s.NewVar()
		}
		var all [][]Lit
		for batch := 0; batch < 4; batch++ {
			for k := 0; k < 1+rng.Intn(8); k++ {
				width := 1 + rng.Intn(3)
				c := make([]Lit, width)
				for j := range c {
					c[j] = MkLit(rng.Intn(numVars), rng.Intn(2) == 0)
				}
				all = append(all, c)
				s.AddClause(c...)
			}
			got := s.Solve()
			want := bruteForce(numVars, all)
			if (got == Sat) != want {
				t.Fatalf("iter %d batch %d: solver=%v brute=%v", iter, batch, got, want)
			}
			if got == Unsat {
				break
			}
		}
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestStats(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(Pos(a), Pos(b))
	s.Solve()
	st := s.Stats()
	if st.Vars != 2 || st.Clauses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// plantedInstance adds a random 3-SAT instance with a planted
// solution, returning the clauses (for model validation).
func plantedInstance(s *Solver, numVars, numClauses int, seed int64) [][]Lit {
	rng := rand.New(rand.NewSource(seed))
	assignment := make([]bool, numVars)
	for v := range assignment {
		assignment[v] = rng.Intn(2) == 0
	}
	var clauses [][]Lit
	for v := 0; v < numVars; v++ {
		s.NewVar()
	}
	for i := 0; i < numClauses; i++ {
		c := make([]Lit, 3)
		for j := range c {
			v := rng.Intn(numVars)
			c[j] = MkLit(v, rng.Intn(2) == 0)
		}
		v := c[0].Var()
		c[0] = MkLit(v, !assignment[v]) // true under the planted solution
		clauses = append(clauses, c)
		s.AddClause(c...)
	}
	return clauses
}

func modelSatisfies(t *testing.T, s *Solver, clauses [][]Lit) {
	t.Helper()
	for ci, c := range clauses {
		ok := false
		for _, l := range c {
			if s.ValueLit(l) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("model does not satisfy clause %d", ci)
		}
	}
}

// TestLBDLevelsBeyondVarCount: repeating an assumption that is already
// true opens one empty decision level per repeat, so conflict levels
// exceed the number of variables; the LBD stamps must follow them.
func TestLBDLevelsBeyondVarCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		n := 3 + rng.Intn(4)
		s := New()
		cnf := randomCNF(rng, n, 3*n, 3)
		addCNF(s, n, cnf)
		a := MkLit(rng.Intn(n), rng.Intn(2) == 0)
		got := s.Solve(a, a, a, a, a, a, a, a)
		if want := bruteForce(n, append(cnf, []Lit{a})); (got == Sat) != want {
			t.Fatalf("iter %d: Solve under %v repeated = %v, brute force sat=%v", iter, a, got, want)
		}
	}
}
