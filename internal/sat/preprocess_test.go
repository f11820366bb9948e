package sat

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
)

func newVars(s *Solver, n int) []int {
	vs := make([]int, n)
	for i := range vs {
		vs[i] = s.NewVar()
	}
	return vs
}

func TestPreprocessEliminatesChain(t *testing.T) {
	// A chain of equivalences x0 ↔ x1 ↔ ... ↔ xn with only the
	// endpoints frozen: every interior variable is eliminable, and the
	// endpoint correlation must survive.
	const n = 10
	s := New()
	v := newVars(s, n+1)
	for i := 0; i < n; i++ {
		s.AddClause(Neg(v[i]), Pos(v[i+1]))
		s.AddClause(Pos(v[i]), Neg(v[i+1]))
	}
	s.Freeze(v[0])
	s.Freeze(v[n])
	if !s.Preprocess() {
		t.Fatal("preprocess reported unsat")
	}
	st := s.Stats()
	if st.VarsEliminated == 0 {
		t.Error("no variables eliminated from an interior-only chain")
	}
	if got := s.Solve(Pos(v[0]), Neg(v[n])); got != Unsat {
		t.Errorf("Solve(x0, ¬xn) = %v, want Unsat", got)
	}
	if got := s.Solve(Pos(v[0])); got != Sat {
		t.Fatalf("Solve(x0) = %v, want Sat", got)
	}
	if !s.Value(v[n]) {
		t.Error("xn should be forced true by x0 through the chain")
	}
	// Model extension must reconstruct the interior values too.
	for i := 1; i < n; i++ {
		if !s.Value(v[i]) {
			t.Errorf("interior x%d = false under x0=true, want true", i)
		}
	}
}

func TestPreprocessFrozenExempt(t *testing.T) {
	s := New()
	v := newVars(s, 4)
	s.AddClause(Neg(v[0]), Pos(v[1]))
	s.AddClause(Neg(v[1]), Pos(v[2]))
	s.AddClause(Neg(v[2]), Pos(v[3]))
	for _, x := range v {
		s.Freeze(x)
	}
	if !s.Preprocess() {
		t.Fatal("preprocess reported unsat")
	}
	if st := s.Stats(); st.VarsEliminated != 0 {
		t.Errorf("VarsEliminated = %d, want 0 (all frozen)", st.VarsEliminated)
	}
	for _, x := range v {
		if s.Eliminated(x) {
			t.Errorf("frozen variable %d eliminated", x)
		}
	}
}

func TestPreprocessUnsat(t *testing.T) {
	s := New()
	v := newVars(s, 2)
	s.AddClause(Pos(v[0]), Pos(v[1]))
	s.AddClause(Pos(v[0]), Neg(v[1]))
	s.AddClause(Neg(v[0]), Pos(v[1]))
	s.AddClause(Neg(v[0]), Neg(v[1]))
	s.Preprocess() // may or may not detect unsat itself
	if got := s.Solve(); got != Unsat {
		t.Errorf("Solve = %v, want Unsat", got)
	}
}

// randomCNF generates a random k-CNF instance over n variables.
func randomCNF(rng *rand.Rand, n, clauses, k int) [][]Lit {
	out := make([][]Lit, clauses)
	for i := range out {
		cl := make([]Lit, 0, k)
		used := map[int]bool{}
		for len(cl) < k {
			v := rng.Intn(n)
			if used[v] {
				continue
			}
			used[v] = true
			cl = append(cl, MkLit(v, rng.Intn(2) == 1))
		}
		out[i] = cl
	}
	return out
}

func TestPreprocessRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		n := 8 + rng.Intn(20)
		// Around the 3-SAT phase transition so both statuses occur.
		m := int(float64(n) * (3.0 + rng.Float64()*2.5))
		cnf := randomCNF(rng, n, m, 3)

		plain := New()
		newVars(plain, n)
		pre := New()
		newVars(pre, n)
		okPlain, okPre := true, true
		for _, cl := range cnf {
			okPlain = plain.AddClause(cl...) && okPlain
			okPre = pre.AddClause(cl...) && okPre
		}
		pre.Preprocess()

		got, want := pre.Solve(), plain.Solve()
		if got != want {
			t.Fatalf("iter %d: preprocessed %v, plain %v", iter, got, want)
		}
		if got != Sat {
			continue
		}
		// The extended model must satisfy every ORIGINAL clause, not
		// just the preprocessed database.
		for ci, cl := range cnf {
			sat := false
			for _, l := range cl {
				if pre.ValueLit(l) {
					sat = true
					break
				}
			}
			if !sat {
				t.Fatalf("iter %d: extended model falsifies original clause %d: %v", iter, ci, cl)
			}
		}
	}
}

func TestPreprocessIncrementalEnumeration(t *testing.T) {
	// Enumerate all models over a frozen projection, with and without
	// preprocessing; the mining loop depends on this exact pattern.
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		n := 10 + rng.Intn(10)
		m := int(float64(n) * 2.5)
		cnf := randomCNF(rng, n, m, 3)
		proj := []int{0, 1, 2, 3}

		enumerate := func(preprocess bool) map[uint]bool {
			s := New()
			newVars(s, n)
			for _, cl := range cnf {
				s.AddClause(cl...)
			}
			if preprocess {
				for _, v := range proj {
					s.Freeze(v)
				}
				s.Preprocess()
			}
			models := map[uint]bool{}
			for s.Solve() == Sat {
				var key uint
				block := make([]Lit, len(proj))
				for i, v := range proj {
					if s.Value(v) {
						key |= 1 << uint(i)
					}
					block[i] = MkLit(v, s.Value(v))
				}
				models[key] = true
				if !s.AddClause(block...) {
					break
				}
				if len(models) > 1<<len(proj) {
					t.Fatal("enumeration did not terminate")
				}
			}
			return models
		}

		plain := enumerate(false)
		pre := enumerate(true)
		if len(plain) != len(pre) {
			t.Fatalf("iter %d: projection count differs: plain %d, preprocessed %d", iter, len(plain), len(pre))
		}
		for k := range plain {
			if !pre[k] {
				t.Fatalf("iter %d: projection %b missing after preprocessing", iter, k)
			}
		}
	}
}

func TestAddClauseEliminatedPanics(t *testing.T) {
	s := New()
	v := newVars(s, 3)
	s.AddClause(Neg(v[0]), Pos(v[1]))
	s.AddClause(Neg(v[1]), Pos(v[2]))
	s.Freeze(v[0])
	s.Freeze(v[2])
	if !s.Preprocess() {
		t.Fatal("preprocess reported unsat")
	}
	if !s.Eliminated(v[1]) {
		t.Skip("middle variable not eliminated; nothing to check")
	}
	defer func() {
		if recover() == nil {
			t.Error("AddClause over an eliminated variable did not panic")
		}
	}()
	s.AddClause(Pos(v[1]))
}

// pinnedCNF generates a seeded random CNF over n variables, one
// clause in eight binary and the rest 3..5 wide, so sparse variables
// are eliminable.
func pinnedCNF(seed int64, n, m int) [][]Lit {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]Lit, m)
	for i := range out {
		width := 3 + rng.Intn(3)
		if rng.Intn(8) == 0 {
			width = 2
		}
		cl := make([]Lit, width)
		for j := range cl {
			cl[j] = MkLit(rng.Intn(n), rng.Intn(2) == 1)
		}
		out[i] = cl
	}
	return out
}

// structuredCNF is built so that every preprocessing step fires: root
// units that shorten clauses, a chain of equivalences whose interior
// variables are eliminable, and a variable (25) whose elimination
// derives the unit 24, which then kills one clause and strengthens
// (¬24 ∨ 26 ∨ 27) to (26 ∨ 27) during preprocessing.
func structuredCNF() (n int, cnf [][]Lit, frozen []int) {
	n = 28
	cnf = [][]Lit{
		{Pos(0)}, {Neg(1)},
		{Pos(2), Pos(3)}, {Pos(2), Pos(3), Pos(4)},
		{Pos(5), Pos(6)}, {Neg(5), Pos(6), Pos(7)},
		{Pos(1), Pos(8), Pos(9)}, {Neg(0), Pos(8), Pos(10)},
		{Pos(4), Neg(7), Pos(11)}, {Neg(4), Pos(7), Neg(11)},
	}
	for v := 12; v < 23; v++ {
		cnf = append(cnf, []Lit{Neg(v), Pos(v + 1)}, []Lit{Pos(v), Neg(v + 1)})
	}
	cnf = append(cnf, []Lit{Pos(12), Pos(2), Neg(9)}, []Lit{Neg(23), Pos(6), Pos(10)},
		[]Lit{Pos(24), Pos(25)}, []Lit{Pos(24), Neg(25)},
		[]Lit{Neg(24), Pos(26), Pos(27)}, []Lit{Pos(24), Pos(26), Pos(3)})
	return n, cnf, []int{2, 3, 6, 9, 10, 12, 23, 24, 26, 27}
}

// preprocessDigest runs Preprocess on cnf and hashes the resulting
// clause list (clause order and literal order), the elimination stack
// and the preprocessing counters.
func preprocessDigest(t *testing.T, n int, cnf [][]Lit, frozen []int) (uint64, *Solver) {
	t.Helper()
	return intakeDigest(t, n, cnf, frozen, false)
}

// intakeDigest is preprocessDigest with the choice of intake: bulk
// loads the clauses through BulkLoad.
func intakeDigest(t *testing.T, n int, cnf [][]Lit, frozen []int, bulk bool) (uint64, *Solver) {
	t.Helper()
	s := New()
	if bulk {
		s.BulkLoad()
	}
	newVars(s, n)
	for _, cl := range cnf {
		s.AddClause(cl...)
	}
	for _, v := range frozen {
		s.Freeze(v)
	}
	ok := s.Preprocess()
	h := fnv.New64a()
	word := func(x int) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		h.Write(b[:])
	}
	clauseList := func(cls [][]Lit) {
		word(len(cls))
		for _, cl := range cls {
			word(len(cl))
			for _, l := range cl {
				word(int(l))
			}
		}
	}
	if ok {
		word(1)
	} else {
		word(0)
	}
	clauseList(storeClauses(s))
	for _, e := range storeElim(s) {
		word(e.v)
		clauseList(e.clauses)
	}
	word(s.Stats().VarsEliminated)
	return h.Sum64(), s
}

// TestPreprocessPinned pins the preprocessed formula itself: the
// surviving clauses in order with their literal order, the
// elimination stack, and the elimination count. Storage changes to
// the preprocessor (working-set layout, occurrence lists, the
// elimination stack) must reproduce it exactly, because elimination's
// candidate order reads raw occurrence-list lengths.
func TestPreprocessPinned(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		n, m   int
		digest uint64
	}{
		{1, 40, 100, 0x90e70cee0435e745},
		{2, 60, 150, 0xc8deaf3db95a4880},
		{3, 80, 240, 0xbe694a186232b839},
		{4, 120, 300, 0x91694047a898641f},
		{5, 200, 600, 0x6df7193702be34b7},
		{6, 300, 1000, 0x3b3895757a63ff85},
	} {
		var frozen []int
		for v := 0; v < tc.n; v += 7 {
			frozen = append(frozen, v)
		}
		got, _ := preprocessDigest(t, tc.n, pinnedCNF(tc.seed, tc.n, tc.m), frozen)
		if got != tc.digest {
			t.Errorf("seed %d: preprocess digest %#x, want %#x", tc.seed, got, tc.digest)
		}
	}

	n, cnf, frozen := structuredCNF()
	got, s := preprocessDigest(t, n, cnf, frozen)
	strengthened := slices.ContainsFunc(storeClauses(s), func(cl []Lit) bool {
		return slices.Equal(cl, []Lit{Pos(26), Pos(27)})
	})
	if st := s.Stats(); st.VarsEliminated == 0 || !s.Eliminated(25) || !s.FixedAtRoot(24) || !strengthened {
		t.Fatalf("structured CNF: %d eliminated (25: %v), unit 24 derived %v, (26 ∨ 27) kept %v; want every step to fire",
			st.VarsEliminated, s.Eliminated(25), s.FixedAtRoot(24), strengthened)
	}
	if want := uint64(0xd7b63a00ade71d3c); got != want {
		t.Errorf("structured CNF: preprocess digest %#x, want %#x", got, want)
	}
}

// TestArmPreprocess: an armed solver runs the pass inside Solve right
// after the conflict that reaches preprocessConflicts, and a formula
// decided sooner never runs it. Variables created while armed are
// frozen; once the pass has run, new variables are not.
func TestArmPreprocess(t *testing.T) {
	easy := New()
	vs := newVars(easy, 3)
	easy.AddClause(Pos(vs[0]), Pos(vs[1]))
	easy.AddClause(Neg(vs[1]), Pos(vs[2]))
	easy.ArmPreprocess()
	if v := easy.NewVar(); !easy.frozen[v] {
		t.Error("a variable created while armed is not frozen")
	}
	if got := easy.Solve(); got != Sat {
		t.Fatalf("easy formula: Solve = %v, want Sat", got)
	}
	if st := easy.Stats(); st.Preprocessed || st.PreClauses != 0 || st.VarsEliminated != 0 {
		t.Errorf("easy formula ran the pass: %+v", st)
	}

	// Pigeonhole, 7 pigeons in 6 holes: more conflicts than the
	// threshold.
	hard := New()
	const n = 6
	var p [n + 1][n]int
	for i := range p {
		for j := range p[i] {
			p[i][j] = hard.NewVar()
		}
	}
	for i := range p {
		lits := make([]Lit, n)
		for j := range lits {
			lits[j] = Pos(p[i][j])
		}
		hard.AddClause(lits...)
	}
	for j := 0; j < n; j++ {
		for i1 := range p {
			for i2 := i1 + 1; i2 < len(p); i2++ {
				hard.AddClause(Neg(p[i1][j]), Neg(p[i2][j]))
			}
		}
	}
	hard.ArmPreprocess()
	if got := hard.Solve(); got != Unsat {
		t.Fatalf("pigeonhole: Solve = %v, want Unsat", got)
	}
	st := hard.Stats()
	if !st.Preprocessed || st.PreprocessConflicts != preprocessConflicts || st.Conflicts <= preprocessConflicts {
		t.Errorf("pigeonhole: pass ran = %v after %d of %d conflicts, want a pass after exactly %d",
			st.Preprocessed, st.PreprocessConflicts, st.Conflicts, preprocessConflicts)
	}
	if v := hard.NewVar(); hard.frozen[v] {
		t.Error("a variable created after the pass is frozen")
	}
}
