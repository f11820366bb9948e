package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// orderInstance is a random order matrix over vars variables: entries
// are constants, literals of either polarity, and now and then a
// variable that already backs another entry.
type orderInstance struct {
	n, vars int
	mat     [][]Lit // mat[a][b], a < b
}

func randomOrder(rng *rand.Rand, n, maxVars int) orderInstance {
	in := orderInstance{n: n, mat: make([][]Lit, n)}
	for a := 0; a < n; a++ {
		in.mat[a] = make([]Lit, n)
		for b := a + 1; b < n; b++ {
			var l Lit
			switch r := rng.Intn(10); {
			case r == 0:
				l = OrderTrue
			case r == 1 && a > 0:
				// Constants that make the order infeasible now and then.
				l = OrderFalse
			case r == 2 && in.vars > 0, in.vars == maxVars:
				l = MkLit(rng.Intn(in.vars), rng.Intn(2) == 0)
			default:
				l = MkLit(in.vars, rng.Intn(2) == 0)
				in.vars++
			}
			in.mat[a][b] = l
		}
	}
	return in
}

func (in orderInstance) lit(a, b int) Lit {
	if a < b {
		return in.mat[a][b]
	}
	return in.mat[b][a].Not()
}

// eager returns the transitivity clauses over every ordered triple of
// distinct nodes, constants folded: a clause a constant satisfies is
// left out and false constants are dropped, so an empty clause means
// the constants alone are cyclic.
func (in orderInstance) eager() [][]Lit {
	var out [][]Lit
	for a := 0; a < in.n; a++ {
		for b := 0; b < in.n; b++ {
			for k := 0; k < in.n; k++ {
				if a == b || b == k || a == k {
					continue
				}
				cl, sat := []Lit{}, false
				for _, l := range []Lit{in.lit(a, b).Not(), in.lit(b, k).Not(), in.lit(a, k)} {
					switch l {
					case OrderTrue:
						sat = true
					case OrderFalse:
					default:
						cl = append(cl, l)
					}
				}
				if !sat {
					out = append(out, normClause(cl))
				}
			}
		}
	}
	return out
}

// normClause sorts a clause and drops duplicate literals.
func normClause(cl []Lit) []Lit {
	cl = slices.Clone(cl)
	slices.Sort(cl)
	return slices.Compact(cl)
}

// isEager reports whether cl is, as a set, one of the eager clauses.
func isEager(eager [][]Lit, cl []Lit) bool {
	cl = normClause(cl)
	return slices.ContainsFunc(eager, func(e []Lit) bool { return slices.Equal(e, cl) })
}

// unitPropagate runs unit propagation over clauses from the given
// assignment (index v: lUndef, lTrue or lFalse) and reports whether it
// reached a conflict.
func unitPropagate(assign []lbool, clauses [][]Lit) bool {
	val := func(l Lit) lbool {
		v := assign[l.Var()]
		if v == lUndef || !l.Sign() {
			return v
		}
		return 3 - v // lTrue <-> lFalse
	}
	for changed := true; changed; {
		changed = false
		for _, cl := range clauses {
			var unit Lit = -1
			free := 0
			done := false
			for _, l := range cl {
				switch val(l) {
				case lTrue:
					done = true
				case lUndef:
					free++
					unit = l
				}
			}
			switch {
			case done:
			case free == 0:
				return true
			case free == 1:
				assign[unit.Var()] = boolToLbool(!unit.Sign())
				changed = true
			}
		}
	}
	return false
}

// checkReasons requires every order-theory reason on the trail to be
// one of the eager clauses, its implied literal first.
func checkReasons(t *testing.T, s *Solver, eager [][]Lit) {
	t.Helper()
	for _, p := range s.trail {
		if s.reasons[p.Var()] != crefOrder {
			continue
		}
		r := s.reasonLits(crefOrder, p)
		if r[0] != p || !isEager(eager, r) {
			t.Fatalf("reason of %v is %v, not an eager clause", p, r)
		}
	}
}

// isStrictTotalOrder reports whether the model orders the nodes
// transitively (antisymmetry and totality hold by construction).
func isStrictTotalOrder(s *Solver, in orderInstance) bool {
	before := func(a, b int) bool {
		switch l := in.lit(a, b); l {
		case OrderTrue:
			return true
		case OrderFalse:
			return false
		default:
			return s.ValueLit(l)
		}
	}
	for a := 0; a < in.n; a++ {
		for b := 0; b < in.n; b++ {
			for k := 0; k < in.n; k++ {
				if a != b && b != k && a != k && before(a, b) && before(b, k) && !before(a, k) {
					return false
				}
			}
		}
	}
	return true
}

// TestOrderPropagationMatchesEager drives the theory by hand: random
// decisions, each followed by propagate, over a random matrix and
// random side clauses. After every step the solver's assignment must be
// exactly the unit-propagation fixpoint over the eager clauses and the
// side clauses, a conflict must come exactly when that propagation
// conflicts, and every theory reason and conflict clause must be one of
// the eager clauses.
func TestOrderPropagationMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conflicts, reasons := 0, 0
	for iter := 0; iter < 600; iter++ {
		in := randomOrder(rng, 3+rng.Intn(4), 10)
		nv := in.vars + 2
		s := New()
		newVars(s, nv)
		eager := in.eager()
		all := slices.Clone(eager)
		ok := s.SetOrder(in.n, in.lit)
		for c := rng.Intn(4); c > 0 && ok; c-- {
			cl := normClause([]Lit{MkLit(rng.Intn(nv), rng.Intn(2) == 0), MkLit(rng.Intn(nv), rng.Intn(2) == 0)})
			all = append(all, cl)
			ok = s.AddClause(cl...)
		}
		if ok {
			ok = s.propagate() == crefUndef
		}
		root := make([]lbool, nv)
		if unitPropagate(root, all) != !ok {
			t.Fatalf("iter %d: root conflict %v, eager propagation disagrees", iter, !ok)
		}
		if !ok {
			continue
		}
		if !slices.Equal(s.assigns, root) {
			t.Fatalf("iter %d: root assignment %v, eager fixpoint %v", iter, s.assigns, root)
		}
		want := slices.Clone(root)
		for step := 0; step < nv; step++ {
			var free []int
			for v := 0; v < nv; v++ {
				if s.assigns[v] == lUndef {
					free = append(free, v)
				}
			}
			if len(free) == 0 {
				break
			}
			d := MkLit(free[rng.Intn(len(free))], rng.Intn(2) == 0)
			s.trailLim = append(s.trailLim, len(s.trail))
			s.uncheckedEnqueue(d, crefUndef)
			confl := s.propagate()

			want[d.Var()] = boolToLbool(!d.Sign())
			wantConfl := unitPropagate(want, all)
			if (confl != crefUndef) != wantConfl {
				t.Fatalf("iter %d step %d: conflict %v, eager propagation says %v", iter, step, confl != crefUndef, wantConfl)
			}
			if confl == crefOrder {
				conflicts++
				if cl := s.ord.confl; !isEager(eager, cl) {
					t.Fatalf("iter %d: conflict clause %v is not an eager clause", iter, cl)
				}
			}
			if confl != crefUndef {
				break
			}
			if !slices.Equal(s.assigns, want) {
				t.Fatalf("iter %d step %d: assignment %v, eager fixpoint %v", iter, step, s.assigns, want)
			}
			for _, p := range s.trail {
				if s.reasons[p.Var()] == crefOrder {
					reasons++
				}
			}
			checkReasons(t, s, eager)
		}
		// Backtracking clears exactly the edges of unassigned literals:
		// the root must propagate as before.
		s.cancelUntil(0)
		if s.propagate() != crefUndef || !slices.Equal(s.assigns, root) {
			t.Fatalf("iter %d: root state changed after backtracking", iter)
		}
	}
	if conflicts == 0 || reasons == 0 {
		t.Fatalf("%d theory conflicts and %d reasons: the instances are too easy", conflicts, reasons)
	}
}

// TestOrderSolveAgainstBruteForce solves random matrices with random
// side clauses, under assumptions, with clauses added between solves
// and sometimes after Preprocess, and checks every answer against
// brute force over the eager clauses. Every Sat model must order the
// nodes strictly and totally and satisfy the side clauses.
func TestOrderSolveAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sats, unsats := 0, 0
	for iter := 0; iter < 400; iter++ {
		in := randomOrder(rng, 3+rng.Intn(3), 9)
		nv := in.vars + 3
		s := New()
		if rng.Intn(2) == 0 {
			s.BulkLoad()
		}
		newVars(s, nv)
		eager := in.eager()
		var side [][]Lit
		addSide := func() {
			cl := make([]Lit, 1+rng.Intn(3))
			for i := range cl {
				cl[i] = MkLit(rng.Intn(nv), rng.Intn(2) == 0)
			}
			if slices.ContainsFunc(cl, func(l Lit) bool { return s.Eliminated(l.Var()) }) {
				return
			}
			side = append(side, cl)
			s.AddClause(cl...)
		}
		for c := rng.Intn(6); c > 0; c-- {
			addSide()
		}
		// Side clauses come both before and after the theory.
		s.SetOrder(in.n, in.lit)
		for c := rng.Intn(3); c > 0; c-- {
			addSide()
		}
		if rng.Intn(3) == 0 {
			s.Preprocess()
		}
		for round := 0; round < 4; round++ {
			var as []Lit
			for c := rng.Intn(3); c > 0; c-- {
				if l := MkLit(rng.Intn(nv), rng.Intn(2) == 0); !s.Eliminated(l.Var()) {
					as = append(as, l)
				}
			}
			all := append(slices.Clone(eager), side...)
			for _, a := range as {
				all = append(all, []Lit{a})
			}
			got, want := s.Solve(as...), bruteForce(nv, all)
			if got == Unknown || (got == Sat) != want {
				t.Fatalf("iter %d round %d: Solve = %v, brute force sat=%v", iter, round, got, want)
			}
			if got == Sat {
				sats++
				if !isStrictTotalOrder(s, in) {
					t.Fatalf("iter %d round %d: the model's order is not transitive", iter, round)
				}
				for _, cl := range all[len(eager):] {
					if !slices.ContainsFunc(cl, s.ValueLit) {
						t.Fatalf("iter %d round %d: model falsifies %v", iter, round, cl)
					}
				}
				checkReasons(t, s, eager)
			} else {
				unsats++
			}
			if len(s.ord.confl) > 0 && !isEager(eager, s.ord.confl) {
				t.Fatalf("iter %d: conflict clause %v is not an eager clause", iter, s.ord.confl)
			}
			addSide()
		}
	}
	if sats == 0 || unsats == 0 {
		t.Fatalf("%d Sat and %d Unsat answers: the instances are one-sided", sats, unsats)
	}
}

// TestOrderEnumeratesPermutations: with no constants and no side
// clauses, the models of an order over n nodes are its n! strict total
// orders, and blocking each found one finds them all exactly once.
func TestOrderEnumeratesPermutations(t *testing.T) {
	const n = 5
	s := New()
	vars := newVars(s, n*(n-1)/2)
	idx := func(a, b int) int { return a*n - a*(a+1)/2 + b - a - 1 }
	s.SetOrder(n, func(a, b int) Lit { return Pos(vars[idx(a, b)]) })
	seen := map[string]bool{}
	for s.Solve() == Sat {
		key := make([]byte, len(vars))
		block := make([]Lit, len(vars))
		for i, v := range vars {
			key[i] = '0'
			if s.Value(v) {
				key[i] = '1'
			}
			block[i] = MkLit(v, s.Value(v))
		}
		if seen[string(key)] {
			t.Fatalf("model %s found twice", key)
		}
		seen[string(key)] = true
		s.AddClause(block...)
	}
	if len(seen) != 120 {
		t.Fatalf("found %d orders, want 5! = 120", len(seen))
	}
}

// TestOrderConstantCycleUnsat: constants that close a cycle make
// SetOrder report the formula unsatisfiable.
func TestOrderConstantCycleUnsat(t *testing.T) {
	s := New()
	v := s.NewVar()
	mat := map[[2]int]Lit{{0, 1}: OrderTrue, {1, 2}: OrderTrue, {0, 2}: OrderFalse}
	if s.SetOrder(3, func(a, b int) Lit { return mat[[2]int{a, b}] }) {
		t.Fatal("SetOrder accepted a constant cycle")
	}
	if s.Solve(Pos(v)) != Unsat {
		t.Fatal("a constant cycle must make every solve Unsat")
	}
}
