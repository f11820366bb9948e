package bitvec

// Tests for the formula-minimization layer of the builder: AIG
// rewriting, balanced reduction trees, Ite simplification, and the
// polarity-aware (Plaisted–Greenbaum) encoding. The property test
// compares the minimizing builder against the legacy configuration
// (classic Tseitin, no rewriting) on random circuits, using exhaustive
// truth tables over the free variables as the reference semantics.

import (
	"math/bits"
	"math/rand"
	"testing"

	"checkfence/internal/sat"
)

// legacyBuilder returns a builder configured like the pre-minimization
// encoder: full bidirectional Tseitin, no rewriting.
func legacyBuilder(s *sat.Solver) *Builder {
	b := NewBuilder(s)
	b.SetMinimize(false)
	return b
}

func TestRewriteRules(t *testing.T) {
	s := sat.New()
	b := NewBuilder(s)
	a, c, d := b.Var(), b.Var(), b.Var()
	g := b.And(a, c)

	// Level 1: the conjunct contradicts or repeats an operand.
	if got := b.And(g, a.Not()); got != False {
		t.Errorf("contradiction: And(a&c, !a) = %v, want False", got)
	}
	if got := b.And(g, a); got != g {
		t.Errorf("idempotence: And(a&c, a) = %v, want %v", g, got)
	}
	// Negated gate: subsumption and substitution.
	if got := b.And(g.Not(), a.Not()); got != a.Not() {
		t.Errorf("subsumption: And(!(a&c), !a) = %v, want %v", got, a.Not())
	}
	if got, want := b.And(g.Not(), a), b.And(a, c.Not()); got != want {
		t.Errorf("substitution: And(!(a&c), a) = %v, want %v", got, want)
	}

	// Level 2, both operands negated gates: resolution.
	h := b.And(a.Not(), c)
	if got := b.And(g.Not(), h.Not()); got != c.Not() {
		t.Errorf("resolution: And(!(a&c), !(!a&c)) = %v, want %v", got, c.Not())
	}
	// Level 2, both positive: contradiction across gates.
	if got := b.And(b.And(a, c), b.And(a.Not(), d)); got != False {
		t.Errorf("two-level contradiction = %v, want False", got)
	}
}

func TestIteSimplifications(t *testing.T) {
	s := sat.New()
	b := NewBuilder(s)
	c, x, e := b.Var(), b.Var(), b.Var()
	cases := []struct {
		name      string
		got, want Node
	}{
		{"same branches", b.Ite(c, x, x), x},
		{"then true", b.Ite(c, True, e), b.Or(c, e)},
		{"then false", b.Ite(c, False, e), b.And(c.Not(), e)},
		{"else true", b.Ite(c, x, True), b.Or(c.Not(), x)},
		{"else false", b.Ite(c, x, False), b.And(c, x)},
		{"then is cond", b.Ite(c, c, e), b.Or(c, e)},
		{"else is cond", b.Ite(c, x, c), b.And(c, x)},
		{"negated branches", b.Ite(c, x, x.Not()), b.Iff(c, x)},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("Ite %s: got %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

// depth returns the longest operand chain below n.
func depth(b *Builder, n Node) int {
	x, y, ok := b.gateOperands(n)
	if !ok {
		return 0
	}
	dx, dy := depth(b, x), depth(b, y)
	if dy > dx {
		dx = dy
	}
	return dx + 1
}

func TestBalancedReduction(t *testing.T) {
	s := sat.New()
	b := legacyBuilder(s) // no rewriting: the shape is the test
	var vars []Node
	for i := 0; i < 64; i++ {
		vars = append(vars, b.Var())
	}
	and := b.AndAll(vars...)
	if d := depth(b, and); d != 6 {
		t.Errorf("AndAll(64) depth = %d, want 6 (balanced)", d)
	}
	or := b.OrAll(vars...)
	if d := depth(b, or); d != 6 {
		t.Errorf("OrAll(64) depth = %d, want 6 (balanced)", d)
	}
	if b.AndAll() != True || b.OrAll() != False {
		t.Error("empty reductions must fold to the identity")
	}
	if b.AndAll(vars[3]) != vars[3] {
		t.Error("singleton reduction must be the operand itself")
	}
}

// circuit is a randomly generated DAG over nVars free variables,
// described operationally so it can be replayed into any builder. The
// reference semantics is a 32-row truth table per node (one bit per
// assignment of the 5 variables).
type circuit struct {
	ops []circuitOp
}

type circuitOp struct {
	kind    int // 0 And, 1 Or, 2 Xor, 3 Ite
	a, b, c int // operand indices into the node list; negative = negated
}

const propVars = 5

// buildCircuit replays the circuit into a builder. It returns the
// variable nodes and every intermediate node.
func (ci *circuit) build(b *Builder) (vars, nodes []Node) {
	for i := 0; i < propVars; i++ {
		v := b.Var()
		vars = append(vars, v)
		nodes = append(nodes, v)
	}
	pick := func(ref int) Node {
		n := nodes[abs(ref)]
		if ref < 0 {
			n = n.Not()
		}
		return n
	}
	for _, op := range ci.ops {
		var n Node
		switch op.kind {
		case 0:
			n = b.And(pick(op.a), pick(op.b))
		case 1:
			n = b.Or(pick(op.a), pick(op.b))
		case 2:
			n = b.Xor(pick(op.a), pick(op.b))
		default:
			n = b.Ite(pick(op.c), pick(op.a), pick(op.b))
		}
		nodes = append(nodes, n)
	}
	return vars, nodes
}

// tables computes the truth table of every node: bit r of tables()[i]
// is node i's value under assignment r (variable v = bit v of r).
func (ci *circuit) tables() []uint32 {
	var tt []uint32
	for i := 0; i < propVars; i++ {
		var col uint32
		for r := 0; r < 32; r++ {
			if r>>uint(i)&1 == 1 {
				col |= 1 << uint(r)
			}
		}
		tt = append(tt, col)
	}
	pick := func(ref int) uint32 {
		v := tt[abs(ref)]
		if ref < 0 {
			v = ^v
		}
		return v
	}
	for _, op := range ci.ops {
		var v uint32
		switch op.kind {
		case 0:
			v = pick(op.a) & pick(op.b)
		case 1:
			v = pick(op.a) | pick(op.b)
		case 2:
			v = pick(op.a) ^ pick(op.b)
		default:
			v = pick(op.c)&pick(op.a) | ^pick(op.c)&pick(op.b)
		}
		tt = append(tt, v)
	}
	return tt
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func randomCircuit(rng *rand.Rand, nOps int) *circuit {
	ci := &circuit{}
	for i := 0; i < nOps; i++ {
		limit := propVars + i
		ref := func() int {
			r := rng.Intn(limit)
			if rng.Intn(2) == 1 {
				return -r
			}
			return r
		}
		ci.ops = append(ci.ops, circuitOp{
			kind: rng.Intn(4), a: ref(), b: ref(), c: ref(),
		})
	}
	return ci
}

// countModels enumerates the satisfying assignments of root projected
// onto the free variables, using blocking clauses over the variable
// literals (the spec-mining pattern, which requires both polarities of
// every blocked literal and therefore exercises polarity promotion).
func countModels(t *testing.T, b *Builder, s *sat.Solver, vars []Node, root Node) int {
	t.Helper()
	b.Assert(root)
	count := 0
	for {
		switch st := s.Solve(); st {
		case sat.Unsat:
			return count
		case sat.Sat:
		default:
			t.Fatalf("solver returned %v", st)
		}
		count++
		if count > 32 {
			t.Fatal("more projected models than assignments")
		}
		block := make([]sat.Lit, len(vars))
		for i, v := range vars {
			lit := b.Lit(v)
			if b.Eval(v) {
				lit = lit.Not()
			}
			block[i] = lit
		}
		s.AddClause(block...)
	}
}

// TestMinimizedBuilderDifferential checks, on random circuits, that
// the minimizing builder and the legacy builder agree with the truth
// table: same satisfiability, same projected model count, and — after
// each Sat — Eval agrees with the table on every node of the circuit
// (this exercises model reconstruction for gates the PG encoding
// never materialized, or materialized in one polarity only).
func TestMinimizedBuilderDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for it := 0; it < iters; it++ {
		ci := randomCircuit(rng, 3+rng.Intn(25))
		tt := ci.tables()
		rootIdx := len(tt) - 1 - rng.Intn(len(ci.ops)+1)
		wantModels := bits.OnesCount32(tt[rootIdx])

		for _, legacy := range []bool{false, true} {
			s := sat.New()
			var b *Builder
			if legacy {
				b = legacyBuilder(s)
			} else {
				b = NewBuilder(s)
			}
			vars, nodes := ci.build(b)
			root := nodes[rootIdx]

			// First: solve once and compare every node's Eval with
			// the truth table at the model's variable assignment.
			b.Assert(root)
			st := s.Solve()
			if (st == sat.Sat) != (wantModels > 0) {
				t.Fatalf("iter %d legacy=%v: status %v, want models=%d", it, legacy, st, wantModels)
			}
			if st == sat.Sat {
				row := 0
				for i, v := range vars {
					if b.Eval(v) {
						row |= 1 << uint(i)
					}
				}
				if tt[rootIdx]>>uint(row)&1 != 1 {
					t.Fatalf("iter %d legacy=%v: model row %d does not satisfy root", it, legacy, row)
				}
				for i, n := range nodes {
					if got, want := b.Eval(n), tt[i]>>uint(row)&1 == 1; got != want {
						t.Fatalf("iter %d legacy=%v: node %d Eval=%v, table=%v", it, legacy, i, got, want)
					}
				}
			}

			// Second: full projected enumeration on a fresh solver,
			// which promotes the variable polarities via Lit and adds
			// blocking clauses (both polarities).
			s2 := sat.New()
			var b2 *Builder
			if legacy {
				b2 = legacyBuilder(s2)
			} else {
				b2 = NewBuilder(s2)
			}
			vars2, nodes2 := ci.build(b2)
			if got := countModels(t, b2, s2, vars2, nodes2[rootIdx]); got != wantModels {
				t.Fatalf("iter %d legacy=%v: %d projected models, want %d", it, legacy, got, wantModels)
			}
		}
	}
}

// TestPolarityPromotion materializes a gate first in a single
// polarity (via Assert) and later in both (via Lit), and checks that
// the incremental promotion leaves the encoding consistent: forcing
// the gate false must forbid the conjunction.
func TestPolarityPromotion(t *testing.T) {
	s := sat.New()
	b := NewBuilder(s)
	x, y := b.Var(), b.Var()
	g := b.And(x, y)
	other := b.Or(x, y)
	b.Assert(other) // g itself stays positive-only so far
	if s.Solve() != sat.Sat {
		t.Fatal("Or(x,y) must be satisfiable")
	}
	// Promotion: request both polarities and pin g false while
	// asserting both inputs true — only the promoted direction
	// (x&y -> g) makes this unsatisfiable.
	lit := b.Lit(g)
	s.AddClause(lit.Not())
	s.AddClause(b.Lit(x))
	s.AddClause(b.Lit(y))
	if st := s.Solve(); st != sat.Unsat {
		t.Fatalf("x&y with And(x,y) forced false must be UNSAT, got %v", st)
	}
}
