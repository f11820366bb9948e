package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"checkfence/internal/sat"
)

// solveNode asserts the node and reports whether the resulting CNF is
// satisfiable.
func solveNode(t *testing.T, b *Builder, s *sat.Solver, n Node) bool {
	t.Helper()
	b.Assert(n)
	return s.Solve() == sat.Sat
}

func TestConstantFolding(t *testing.T) {
	s := sat.New()
	b := NewBuilder(s)
	x := b.Var()
	if b.And(x, True) != x || b.And(True, x) != x {
		t.Error("And identity")
	}
	if b.And(x, False) != False || b.And(x, x.Not()) != False {
		t.Error("And annihilation")
	}
	if b.And(x, x) != x {
		t.Error("And idempotence")
	}
	if b.Or(x, True) != True || b.Or(x, False) != x {
		t.Error("Or folding")
	}
	if b.Ite(True, x, x.Not()) != x || b.Ite(False, x, x.Not()) != x.Not() {
		t.Error("Ite folding")
	}
}

func TestStructuralHashing(t *testing.T) {
	s := sat.New()
	b := NewBuilder(s)
	x, y := b.Var(), b.Var()
	if b.And(x, y) != b.And(y, x) {
		t.Error("And must be hash-consed commutatively")
	}
	n := b.NumGates()
	b.And(x, y)
	if b.NumGates() != n {
		t.Error("repeated And must not allocate")
	}
}

func TestTseitinSatisfiability(t *testing.T) {
	s := sat.New()
	b := NewBuilder(s)
	x, y := b.Var(), b.Var()
	// (x xor y) and x  => model must have x=1, y=0.
	n := b.And(b.Xor(x, y), x)
	if !solveNode(t, b, s, n) {
		t.Fatal("expected SAT")
	}
	if !b.Eval(x) || b.Eval(y) {
		t.Errorf("model x=%v y=%v, want true,false", b.Eval(x), b.Eval(y))
	}
	if !b.Eval(n) {
		t.Error("asserted node must evaluate true")
	}
}

func TestTseitinUnsat(t *testing.T) {
	s := sat.New()
	b := NewBuilder(s)
	x, y, z := b.Var(), b.Var(), b.Var()
	f := b.AndAll(b.Or(x, y), b.Or(x.Not(), z), z.Not(), b.And(y.Not(), x.Not()).Not())
	// f forces: z=0, so x=0 (from x->z), so y=1; last conjunct
	// requires !( !y & !x ) which holds; so f is SAT. Make it unsat:
	g := b.And(f, y.Not())
	b.Assert(g)
	if s.Solve() != sat.Unsat {
		t.Fatal("expected UNSAT")
	}
}

// TestCircuitEquivalenceQuick exhaustively compares circuit semantics
// with Go's boolean operators over random assignments, by asserting
// the inputs to fixed values and checking the output.
func TestCircuitEquivalenceQuick(t *testing.T) {
	f := func(xv, yv, cv bool) bool {
		s := sat.New()
		b := NewBuilder(s)
		x, y, c := b.Var(), b.Var(), b.Var()
		nodes := map[string]Node{
			"and": b.And(x, y),
			"or":  b.Or(x, y),
			"xor": b.Xor(x, y),
			"iff": b.Iff(x, y),
			"imp": b.Implies(x, y),
			"ite": b.Ite(c, x, y),
		}
		want := map[string]bool{
			"and": xv && yv,
			"or":  xv || yv,
			"xor": xv != yv,
			"iff": xv == yv,
			"imp": !xv || yv,
			"ite": (cv && xv) || (!cv && yv),
		}
		b.Assert(b.Iff(x, Const(xv)))
		b.Assert(b.Iff(y, Const(yv)))
		b.Assert(b.Iff(c, Const(cv)))
		// Materialize all outputs before solving.
		for _, n := range nodes {
			b.Lit(n)
		}
		if s.Solve() != sat.Sat {
			return false
		}
		for name, n := range nodes {
			if b.Eval(n) != want[name] {
				t.Logf("%s(%v,%v,%v): got %v want %v", name, xv, yv, cv, b.Eval(n), want[name])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConstBVRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 5, 13, 255} {
		bv := ConstBV(8, v)
		got, ok := bv.IsConst()
		if !ok || got != v {
			t.Errorf("ConstBV(8,%d) round trip = %d,%v", v, got, ok)
		}
	}
	if _, ok := append(ConstBV(2, 1), Node(100)).IsConst(); ok {
		t.Error("non-constant BV reported constant")
	}
}

// TestBVArithmeticRandom checks AddBV/SubBV/MulBV/LtBV/LeBV/EqBV against Go
// integer semantics by constraining variable vectors to concrete
// values.
func TestBVArithmeticRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 60; iter++ {
		w := 1 + rng.Intn(7)
		mask := int64(1)<<uint(w) - 1
		xv := rng.Int63() & mask
		yv := rng.Int63() & mask

		s := sat.New()
		b := NewBuilder(s)
		x := b.VarBV(w)
		y := b.VarBV(w)
		b.Assert(b.EqBV(x, ConstBV(w, xv)))
		b.Assert(b.EqBV(y, ConstBV(w, yv)))

		sum := b.AddBV(x, y)
		diff := b.SubBV(x, y)
		prod := b.MulBV(x, y)
		lt := b.LtBV(x, y)
		le := b.LeBV(x, y)
		eq := b.EqBV(x, y)

		for _, n := range []Node{lt, le, eq} {
			b.Lit(n)
		}
		for _, bv := range []BV{sum, diff, prod} {
			for _, n := range bv {
				b.Lit(n)
			}
		}
		if s.Solve() != sat.Sat {
			t.Fatalf("iter %d: constrained formula UNSAT", iter)
		}
		if got := b.EvalBV(sum); got != (xv+yv)&mask {
			t.Errorf("iter %d: %d+%d = %d, want %d", iter, xv, yv, got, (xv+yv)&mask)
		}
		if got := b.EvalBV(diff); got != (xv-yv)&mask {
			t.Errorf("iter %d: %d-%d = %d, want %d", iter, xv, yv, got, (xv-yv)&mask)
		}
		if got := b.EvalBV(prod); got != (xv*yv)&mask {
			t.Errorf("iter %d: %d*%d = %d, want %d", iter, xv, yv, got, (xv*yv)&mask)
		}
		if b.Eval(lt) != (xv < yv) {
			t.Errorf("iter %d: lt(%d,%d) = %v", iter, xv, yv, b.Eval(lt))
		}
		if b.Eval(le) != (xv <= yv) {
			t.Errorf("iter %d: le(%d,%d) = %v", iter, xv, yv, b.Eval(le))
		}
		if b.Eval(eq) != (xv == yv) {
			t.Errorf("iter %d: eq(%d,%d) = %v", iter, xv, yv, b.Eval(eq))
		}
	}
}

func TestMuxBVAndIsZero(t *testing.T) {
	s := sat.New()
	b := NewBuilder(s)
	c := b.Var()
	x := ConstBV(4, 9)
	y := ConstBV(4, 2)
	m := b.MuxBV(c, x, y)
	b.Assert(c)
	for _, n := range m {
		b.Lit(n)
	}
	if s.Solve() != sat.Sat {
		t.Fatal("UNSAT")
	}
	if got := b.EvalBV(m); got != 9 {
		t.Errorf("mux = %d, want 9", got)
	}
	if b.Eval(b.IsZero(ConstBV(3, 0))) != true {
		t.Error("IsZero(0) must be true")
	}
	if b.IsZero(ConstBV(3, 4)) != False {
		t.Error("IsZero(4) must fold to False")
	}
}

func TestExtendAndMixedWidths(t *testing.T) {
	s := sat.New()
	b := NewBuilder(s)
	x := ConstBV(2, 3)
	y := ConstBV(5, 3)
	if b.EqBV(x, y) != True {
		t.Error("3 (2-bit) must equal 3 (5-bit) after zero extension")
	}
	sum := b.AddBV(x, ConstBV(5, 4))
	v, ok := sum.IsConst()
	if !ok || v != 7 {
		t.Errorf("3+4 = %d,%v", v, ok)
	}
}

func TestWidthFor(t *testing.T) {
	cases := map[int64]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 255: 8, 256: 9}
	for max, want := range cases {
		if got := WidthFor(max); got != want {
			t.Errorf("WidthFor(%d) = %d, want %d", max, got, want)
		}
	}
}

func TestAssertOr(t *testing.T) {
	s := sat.New()
	b := NewBuilder(s)
	x, y := b.Var(), b.Var()
	b.AssertOr(x, y)
	b.Assert(x.Not())
	if s.Solve() != sat.Sat {
		t.Fatal("UNSAT")
	}
	if !b.Eval(y) {
		t.Error("y must be true")
	}
	// A clause containing True is dropped entirely.
	before := s.NumClauses()
	b.AssertOr(False, True, x)
	if s.NumClauses() != before {
		t.Error("trivially satisfied clause must not be added")
	}
	// A clause of only False nodes is the empty clause.
	b.AssertOr(False)
	if s.Solve() != sat.Unsat {
		t.Error("empty clause must make the formula unsat")
	}
}

// TestAssertOrReusesScratch: AssertOr builds every clause in one
// builder-owned buffer. Later, shorter clauses written into it must not
// corrupt the clauses already handed to the solver.
func TestAssertOrReusesScratch(t *testing.T) {
	s := sat.New()
	b := NewBuilder(s)
	vars := make([]Node, 6)
	for i := range vars {
		vars[i] = b.Var()
	}
	b.AssertOr(vars...)
	// Each unit clause overwrites the front of the buffer; only the
	// last variable is left to satisfy the first clause.
	for _, v := range vars[:len(vars)-1] {
		b.AssertOr(v.Not())
	}
	if s.Solve() != sat.Sat {
		t.Fatal("UNSAT")
	}
	if !b.Eval(vars[len(vars)-1]) {
		t.Fatal("the six-literal clause was corrupted: its last literal is not forced")
	}
	b.AssertOr(vars[len(vars)-1].Not())
	if s.Solve() != sat.Unsat {
		t.Fatal("negating the last literal must make the formula unsat")
	}
}

func TestEvalUnmaterialized(t *testing.T) {
	s := sat.New()
	b := NewBuilder(s)
	x := b.Var()
	n := b.And(x, True)
	// Nothing asserted: solving trivially sat; eval of unmaterialized
	// var defaults to false.
	if s.Solve() != sat.Sat {
		t.Fatal("UNSAT")
	}
	if b.Eval(n) {
		t.Error("unmaterialized var should default false")
	}
	if !b.Eval(True) || b.Eval(False) {
		t.Error("constants")
	}
}

func BenchmarkAdder32(bb *testing.B) {
	for i := 0; i < bb.N; i++ {
		s := sat.New()
		b := NewBuilder(s)
		x := b.VarBV(32)
		y := b.VarBV(32)
		sum := b.AddBV(x, y)
		b.Assert(b.EqBV(sum, ConstBV(32, 123456)))
		if s.Solve() != sat.Sat {
			bb.Fatal("UNSAT")
		}
	}
}
