package sat

import (
	"fmt"
	"math/rand"
	"reflect"
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
		if a, b := fresh.ca.lits(fresh.clauses[i]), reused.ca.lits(reused.clauses[i]); !slices.Equal(a, b) {
			t.Fatalf("clause %d: %v vs %v", i, a, b)
		}
	}
	if got, want := reused.Solve(), fresh.Solve(); got != want {
		t.Fatalf("reused-buffer formula %v, fresh-slice formula %v", got, want)
	}
}

// TestAddClauseAllocs: in steady state, adding a short clause takes
// its storage from the solver's clause region and scratch buffer, so
// it averages well under one allocation per call.
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
		add() // grow the region and the watch lists
	}
	if avg := testing.AllocsPerRun(2000, add); avg > 0.1 {
		t.Fatalf("AddClause allocates %.3f times per call, want < 0.1", avg)
	}
}

// TestPreprocessCloneAgreesWithBruteForce: Preprocess rebuilds the
// database into a fresh region and bulk-allocated watch lists; solving
// the rebuilt formula must agree with exhaustive enumeration and with
// an unpreprocessed solver, and its extended model must satisfy every
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

// addCNF loads a formula over n fresh variables.
func addCNF(s *Solver, n int, cnf [][]Lit) {
	newVars(s, n)
	for _, cl := range cnf {
		s.AddClause(cl...)
	}
}

// elimView is one elimination-stack entry decoded for tests.
type elimView struct {
	v       int
	clauses [][]Lit
}

// storeClauses returns copies of the problem clauses in list order.
func storeClauses(s *Solver) [][]Lit {
	out := make([][]Lit, len(s.clauses))
	for i, c := range s.clauses {
		out[i] = slices.Clone(s.ca.lits(c))
	}
	return out
}

// storeElim decodes the elimination stack.
func storeElim(s *Solver) []elimView {
	out := make([]elimView, len(s.elimStack))
	for i, e := range s.elimStack {
		out[i].v = int(e.v)
		for saved := s.elimLits[e.off:e.end]; len(saved) > 0; {
			n := int(saved[0])
			out[i].clauses = append(out[i].clauses, slices.Clone(saved[1:1+n]))
			saved = saved[1+n:]
		}
	}
	return out
}

// hasPointers reports whether values of type t contain a pointer the
// garbage collector would have to scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return true
	}
	return false
}

// TestSolverStoreHasNoPointers: the element types of the clause store
// and everything indexing it — watch lists, the clause region, reasons,
// the clause and learnt lists, the preprocessor's working set and
// occurrence lists, the elimination stack and the order theory's
// matrix, bitset rows and antecedents — hold no pointers, so the
// garbage collector never scans them.
func TestSolverStoreHasNoPointers(t *testing.T) {
	// The walk itself must see pointers, or the guard proves nothing.
	type pointerWatcher struct {
		c       *[]Lit
		blocker Lit
	}
	if !hasPointers(reflect.TypeOf(pointerWatcher{})) || !hasPointers(reflect.TypeOf([2]elimView{})) {
		t.Fatal("hasPointers misses a pointer")
	}
	s := New()
	newVars(s, 4)
	s.AddClause(Pos(0), Pos(1), Neg(2))
	s.SetOrder(3, func(a, b int) Lit { return Pos(a + b) })
	p := newPrep(s)
	for name, typ := range map[string]reflect.Type{
		"watcher":          reflect.TypeOf(s.watches).Elem().Elem(),
		"region word":      reflect.TypeOf(s.ca.mem).Elem(),
		"reason":           reflect.TypeOf(s.reasons).Elem(),
		"clause list":      reflect.TypeOf(s.clauses).Elem(),
		"learnt list":      reflect.TypeOf(s.learnts).Elem(),
		"reduce scratch":   reflect.TypeOf(s.reduceTmp).Elem(),
		"prep literal":     reflect.TypeOf(p.lits).Elem(),
		"prep clause":      reflect.TypeOf(p.cls).Elem(),
		"prep dead set":    reflect.TypeOf(p.dead).Elem(),
		"prep signature":   reflect.TypeOf(p.sig).Elem(),
		"occurrence":       reflect.TypeOf(p.occs).Elem(),
		"occurrence list":  reflect.TypeOf(p.occ).Elem(),
		"elim entry":       reflect.TypeOf(s.elimStack).Elem(),
		"elim literal":     reflect.TypeOf(s.elimLits).Elem(),
		"prep elim entry":  reflect.TypeOf(p.elim).Elem(),
		"prep elim clause": reflect.TypeOf(p.elimCls).Elem(),
		"order entry":      reflect.TypeOf(s.ord.mat).Elem(),
		"order position":   reflect.TypeOf(s.ord.pos).Elem(),
		"order row word":   reflect.TypeOf(s.ord.succ).Elem(),
		"order antecedent": reflect.TypeOf(s.ord.ante).Elem(),
	} {
		if hasPointers(typ) {
			t.Errorf("%s type %v contains a pointer", name, typ)
		}
	}
}

// dbSnapshot renders the clause database by content: the clause and
// learnt lists with each clause's header fields, every watch list as
// (clause, blocker) pairs, and every reason.
func dbSnapshot(s *Solver) string {
	ca := &s.ca
	show := func(c cref) string {
		return fmt.Sprintf("%v/l%v/t%d/u%v/d%v/a%v/lbd%d", ca.lits(c), ca.learnt(c),
			ca.tier(c), ca.used(c), ca.deleted(c), ca.activity(c), ca.lbd(c))
	}
	out := ""
	for _, list := range [][]cref{s.clauses, s.learnts} {
		for _, c := range list {
			out += show(c) + "\n"
		}
		out += "--\n"
	}
	for l, ws := range s.watches {
		for _, w := range ws {
			out += fmt.Sprintf("w%d %v %v\n", l, ca.lits(w.c), w.blocker)
		}
	}
	for v, r := range s.reasons {
		if r != crefUndef {
			out += fmt.Sprintf("r%d %v\n", v, ca.lits(r))
		}
	}
	return out
}

// TestGarbageCollectKeepsDatabase: relocation reclaims the dead words
// and leaves the database equal by content — list order, header
// fields, watcher order and reasons.
func TestGarbageCollectKeepsDatabase(t *testing.T) {
	s := New()
	s.maxLearnts = 8
	addCNF(s, 90, randomCNF(rand.New(rand.NewSource(4)), 90, 385, 3))
	s.SetBudget(300)
	s.Solve()
	s.reduceDBTiered() // purge deleted learnts, as reduceDB does first
	if s.ca.wasted == 0 {
		t.Fatal("no dead words to reclaim; the instance is too easy")
	}
	before, words := dbSnapshot(s), len(s.ca.mem)-s.ca.wasted
	s.garbageCollect()
	if after := dbSnapshot(s); after != before {
		t.Fatalf("database changed by relocation:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if s.ca.wasted != 0 || len(s.ca.mem) != words {
		t.Fatalf("after relocation: %d words, %d wasted; want %d live words, none wasted",
			len(s.ca.mem), s.ca.wasted, words)
	}
}

// TestGarbageCollectKeepsSearch: relocating the region leaves the
// search unchanged, counter for counter, whether it happens between
// the slices of a budgeted search or in the middle of one (from the
// stop predicate, polled at arbitrary decision levels with reasons
// and deleted learnts in place).
func TestGarbageCollectKeepsSearch(t *testing.T) {
	const (
		never = iota
		betweenSolves
		midSearch
	)
	for seed := int64(1); seed <= 4; seed++ {
		var stats [3]Stats
		var status [3]Status
		for mode := never; mode <= midSearch; mode++ {
			s := New()
			s.maxLearnts = 20
			addCNF(s, 90, randomCNF(rand.New(rand.NewSource(seed)), 90, 385, 3))
			if mode == midSearch {
				s.SetStop(func() bool { s.garbageCollect(); return false })
			}
			s.SetBudget(50)
			for i := 0; i < 40; i++ {
				if status[mode] = s.Solve(); status[mode] != Unknown {
					break
				}
				if mode == betweenSolves {
					s.garbageCollect()
				}
			}
			stats[mode] = s.Stats()
		}
		for mode := betweenSolves; mode <= midSearch; mode++ {
			if status[mode] != status[never] || stats[mode] != stats[never] {
				t.Fatalf("seed %d, mode %d: collecting changed the search:\n never %v %+v\n got   %v %+v",
					seed, mode, status[never], stats[never], status[mode], stats[mode])
			}
		}
	}
}
