// Package bitvec provides a hash-consed boolean circuit builder with a
// Tseitin transformation to CNF, plus bitvector operations built on
// top of it.
//
// The CheckFence encoder compiles the thread-local program semantics
// (the Δ formulas of the paper) into such circuits: every SSA register
// becomes a vector of circuit nodes, and guarded assignments become
// multiplexers. The CNF lowering then materializes exactly the nodes
// that the final formula references as SAT variables and clauses,
// which keeps the CNF polynomial in the unrolled program size as the
// paper requires.
//
// Two minimization layers shrink the formula before the solver sees
// it:
//
//   - AIG rewriting: And applies the local one- and two-level
//     rewriting rules (contradiction, idempotence, subsumption,
//     substitution, resolution) of Brummayer & Biere, "Local Two-Level
//     And-Inverter Graph Minimization without Blowup", so structurally
//     redundant gates are never created. SetRewriteLevel selects how
//     deep the matching looks.
//
//   - Polarity-aware Tseitin (Plaisted–Greenbaum): materialization
//     tracks which implication direction of each gate's definition the
//     formula actually references and emits only that direction — one
//     or two clauses per gate instead of three. A gate first used in
//     one polarity is soundly promoted to the full encoding if the
//     other polarity is requested later (e.g. by a blocking clause of
//     the mining loop), which keeps incremental solving intact.
package bitvec

import (
	"slices"

	"checkfence/internal/sat"
)

// Node is a reference to a circuit node, with the low bit carrying
// negation (an and-inverter graph). The constant true node is the
// node with index 0; False is its negation.
type Node int32

// True and False are the constant nodes.
const (
	True  Node = 0
	False Node = 1
)

// Not negates a node.
func (n Node) Not() Node { return n ^ 1 }

func (n Node) index() int32  { return int32(n >> 1) }
func (n Node) negated() bool { return n&1 == 1 }

// gate is an internal AND gate (or a free variable when isVar).
type gate struct {
	a, b  Node
	isVar bool
}

// Polarity bits of a gate's CNF encoding. polPos means the clauses
// for "gate variable → definition" have been emitted (needed when the
// gate occurs positively in the formula), polNeg the reverse
// implication (needed for negative occurrences). Full Tseitin is
// polBoth.
const (
	polNone uint8 = 0
	polPos  uint8 = 1
	polNeg  uint8 = 2
	polBoth uint8 = 3
)

// flipPol swaps the positive and negative polarity bits (crossing a
// negation edge flips the occurrence polarity of the cone below it).
func flipPol(p uint8) uint8 { return (p&polPos)<<1 | (p&polNeg)>>1 }

// Builder constructs circuits and lowers them to CNF in a sat.Solver.
// Construction and lowering use builder-owned scratch buffers, so a
// Builder is not safe for concurrent use and its methods are not
// reentrant.
type Builder struct {
	gates   []gate
	hash    map[[2]Node]Node
	solver  *sat.Solver
	satVars []int   // gate index -> sat variable (-1 if not materialized)
	pols    []uint8 // gate index -> polarity bits already encoded

	rewriteLevel  int  // 0 = hash/consts only, 1 = one-level, 2 = two-level rules
	polarityAware bool // false = always emit full two-polarity Tseitin
	rewrites      int64

	// Scratch buffers: materialize's work stack and emit list, and
	// AssertOr's clause (AddClause copies it).
	stack []polItem
	emit  []polItem
	orTmp []sat.Lit
}

// NewBuilder returns a Builder that materializes CNF into the given
// solver. Minimization defaults to fully on: two-level AIG rewriting
// and polarity-aware encoding.
func NewBuilder(s *sat.Solver) *Builder {
	b := &Builder{
		hash:          make(map[[2]Node]Node),
		solver:        s,
		rewriteLevel:  2,
		polarityAware: true,
	}
	b.addGate(gate{}) // gate 0 is the constant true
	return b
}

// addGate appends a gate with unmaterialized per-gate state and returns
// its index. The three per-gate slices double together instead of
// letting append grow large slices by 1.25x.
func (b *Builder) addGate(g gate) int32 {
	idx := len(b.gates)
	if idx == cap(b.gates) {
		b.gates = slices.Grow(b.gates, idx)
		b.satVars = slices.Grow(b.satVars, idx)
		b.pols = slices.Grow(b.pols, idx)
	}
	b.gates = append(b.gates, g)
	b.satVars = append(b.satVars, -1)
	b.pols = append(b.pols, polNone)
	return int32(idx)
}

// SetRewriteLevel selects the AIG structural rewriting level applied
// by And: 0 disables rewriting (constant folding and hash-consing
// only), 1 enables the one-level rules, 2 (the default) additionally
// the two-level rules. Rewriting is applied at construction time, so
// the level should be set before building the circuit.
func (b *Builder) SetRewriteLevel(level int) {
	if level < 0 {
		level = 0
	}
	if level > 2 {
		level = 2
	}
	b.rewriteLevel = level
}

// SetPolarityAware selects between Plaisted–Greenbaum polarity-aware
// encoding (the default) and the classic two-polarity Tseitin
// transformation. Like SetRewriteLevel it should be set before any
// node is materialized.
func (b *Builder) SetPolarityAware(on bool) { b.polarityAware = on }

// NumGates returns the number of structural nodes created (constant
// and variables included).
func (b *Builder) NumGates() int { return len(b.gates) }

// Rewrites returns how many And constructions were answered by a
// structural rewriting rule instead of a new gate.
func (b *Builder) Rewrites() int64 { return b.rewrites }

// Var introduces a fresh free boolean variable node.
func (b *Builder) Var() Node {
	return Node(b.addGate(gate{isVar: true}) << 1)
}

// Const returns the node for a boolean constant.
func Const(v bool) Node {
	if v {
		return True
	}
	return False
}

// And returns the conjunction of two nodes, with constant folding,
// structural hashing, and (behind SetRewriteLevel) local AIG
// rewriting.
func (b *Builder) And(x, y Node) Node { return b.and(x, y, 0) }

// maxRewriteDepth bounds the recursion of the substitution-style
// rules, which rebuild a conjunction from rewritten pieces. The rules
// strictly shrink their redexes, but the bound keeps pathological
// chains linear.
const maxRewriteDepth = 32

func (b *Builder) and(x, y Node, depth int) Node {
	// Constant and trivial cases.
	switch {
	case x == False || y == False || x == y.Not():
		return False
	case x == True:
		return y
	case y == True:
		return x
	case x == y:
		return x
	}
	if x > y {
		x, y = y, x
	}
	key := [2]Node{x, y}
	if n, ok := b.hash[key]; ok {
		return n
	}
	if b.rewriteLevel >= 1 && depth < maxRewriteDepth {
		if n, ok := b.rewriteAnd(x, y, depth+1); ok {
			b.rewrites++
			return n
		}
	}
	n := Node(b.addGate(gate{a: x, b: y}) << 1)
	b.hash[key] = n
	return n
}

// gateOperands returns the AND operands of the gate underlying n
// (ignoring n's own negation); ok is false for variables and the
// constant.
func (b *Builder) gateOperands(n Node) (Node, Node, bool) {
	idx := n.index()
	if idx == 0 {
		return 0, 0, false
	}
	g := b.gates[idx]
	if g.isVar {
		return 0, 0, false
	}
	return g.a, g.b, true
}

// rewriteAnd applies the Brummayer–Biere local rewriting rules to
// x ∧ y, reporting whether a rule fired. Level 1 matches one gate
// operand against the sibling node; level 2 additionally matches two
// gate operands against each other.
func (b *Builder) rewriteAnd(x, y Node, depth int) (Node, bool) {
	// One-level (asymmetric) rules: one side is a gate, the other is
	// matched against its operands.
	for _, p := range [2][2]Node{{x, y}, {y, x}} {
		g, o := p[0], p[1]
		a, c, ok := b.gateOperands(g)
		if !ok {
			continue
		}
		if !g.negated() {
			// g = a ∧ c.
			if o == a.Not() || o == c.Not() {
				return False, true // contradiction: (a∧c) ∧ ¬a
			}
			if o == a || o == c {
				return g, true // idempotence: (a∧c) ∧ a = a∧c
			}
		} else {
			// g = ¬(a ∧ c).
			if o == a.Not() || o == c.Not() {
				return o, true // subsumption: ¬(a∧c) ∧ ¬a = ¬a
			}
			if o == a {
				return b.and(o, c.Not(), depth), true // substitution: ¬(a∧c) ∧ a = a ∧ ¬c
			}
			if o == c {
				return b.and(o, a.Not(), depth), true
			}
		}
	}
	if b.rewriteLevel < 2 {
		return 0, false
	}

	// Two-level (symmetric) rules: both sides are gates.
	a, c, okx := b.gateOperands(x)
	d, e, oky := b.gateOperands(y)
	if !okx || !oky {
		return 0, false
	}
	switch {
	case !x.negated() && !y.negated():
		// (a∧c) ∧ (d∧e).
		if a == d.Not() || a == e.Not() || c == d.Not() || c == e.Not() {
			return False, true // contradiction across the pair
		}
		// Idempotence over a shared operand: drop the duplicate and
		// keep the smaller sibling, (a∧c)∧(a∧e) = (a∧c)∧e.
		if a == d || c == d {
			return b.and(x, e, depth), true
		}
		if a == e || c == e {
			return b.and(x, d, depth), true
		}
	case x.negated() != y.negated():
		if !x.negated() { // normalize: x is the negated gate
			x, y = y, x
			a, c, d, e = d, e, a, c
		}
		// ¬(a∧c) ∧ (d∧e).
		if a == d.Not() || a == e.Not() || c == d.Not() || c == e.Not() {
			return y, true // subsumption: d∧e already implies ¬(a∧c)
		}
		if a == d || a == e {
			return b.and(y, c.Not(), depth), true // substitution: (d∧e) ∧ ¬c
		}
		if c == d || c == e {
			return b.and(y, a.Not(), depth), true
		}
	default:
		// ¬(a∧c) ∧ ¬(d∧e): resolution. When the gates share one
		// operand and the other operands are complementary, the
		// conjunction collapses to the negated shared operand:
		// ¬(a∧c) ∧ ¬(¬a∧c) = ¬c.
		if (a == d.Not() && c == e) || (a == e.Not() && c == d) {
			return c.Not(), true
		}
		if (c == d.Not() && a == e) || (c == e.Not() && a == d) {
			return a.Not(), true
		}
	}
	return 0, false
}

// Or returns the disjunction of two nodes.
func (b *Builder) Or(x, y Node) Node { return b.And(x.Not(), y.Not()).Not() }

// Xor returns the exclusive or of two nodes.
func (b *Builder) Xor(x, y Node) Node {
	// x^y = (x|y) & !(x&y)
	return b.And(b.Or(x, y), b.And(x, y).Not())
}

// Iff returns the equivalence of two nodes.
func (b *Builder) Iff(x, y Node) Node { return b.Xor(x, y).Not() }

// Ite returns if-then-else: c ? t : e, with the standard mux
// simplifications applied before falling back to the two-gate form.
func (b *Builder) Ite(c, t, e Node) Node {
	switch {
	case c == True:
		return t
	case c == False:
		return e
	case t == e:
		return t
	case t == True:
		return b.Or(c, e) // c ? 1 : e
	case t == False:
		return b.And(c.Not(), e) // c ? 0 : e
	case e == False:
		return b.And(c, t) // c ? t : 0
	case e == True:
		return b.Or(c.Not(), t) // c ? t : 1
	case c == t:
		return b.Or(c, e) // c ? c : e
	case c == t.Not():
		return b.And(c.Not(), e) // c ? ¬c : e
	case c == e:
		return b.And(c, t) // c ? t : c
	case c == e.Not():
		return b.Or(c.Not(), t) // c ? t : ¬c
	case t == e.Not():
		return b.Iff(c, t) // c ? t : ¬t
	}
	return b.Or(b.And(c, t), b.And(c.Not(), e))
}

// Implies returns x -> y.
func (b *Builder) Implies(x, y Node) Node { return b.Or(x.Not(), y) }

// reduceTree folds op over ns as a balanced binary tree, so wide
// reductions produce logarithmic-depth cones (which hash-cons far
// better than linear chains across similar reductions).
func (b *Builder) reduceTree(ns []Node, op func(x, y Node) Node, empty Node) Node {
	if len(ns) == 0 {
		return empty
	}
	work := make([]Node, len(ns))
	copy(work, ns)
	for len(work) > 1 {
		half := 0
		for i := 0; i+1 < len(work); i += 2 {
			work[half] = op(work[i], work[i+1])
			half++
		}
		if len(work)%2 == 1 {
			work[half] = work[len(work)-1]
			half++
		}
		work = work[:half]
	}
	return work[0]
}

// AndAll reduces a list with And as a balanced tree (True for the
// empty list).
func (b *Builder) AndAll(ns ...Node) Node { return b.reduceTree(ns, b.And, True) }

// OrAll reduces a list with Or as a balanced tree (False for the
// empty list).
func (b *Builder) OrAll(ns ...Node) Node { return b.reduceTree(ns, b.Or, False) }

// Lit materializes the node in the solver and returns the SAT literal
// representing it. The cone is encoded in both polarities (full
// Tseitin), so the literal may later appear in clauses with either
// sign — the mining loop's blocking clauses and solver assumptions
// need exactly that.
func (b *Builder) Lit(n Node) sat.Lit { return b.litPol(n, polBoth) }

// litPol materializes n for the given occurrence polarity of the node
// (polPos = the returned literal appears positively in a clause) and
// returns its literal. Under polarity-aware encoding only the
// implication directions the occurrence needs are emitted; previously
// emitted directions are never duplicated, and missing ones are added
// incrementally (promotion).
func (b *Builder) litPol(n Node, occ uint8) sat.Lit {
	if !b.polarityAware {
		occ = polBoth
	}
	idx := n.index()
	if idx == 0 {
		// Constant: use a dedicated always-true variable.
		return sat.MkLit(b.constVar(), n.negated())
	}
	if n.negated() {
		occ = flipPol(occ)
	}
	return sat.MkLit(b.materialize(idx, occ), n.negated())
}

func (b *Builder) constVar() int {
	if b.satVars[0] >= 0 {
		return b.satVars[0]
	}
	v := b.solver.NewVar()
	b.solver.AddClause(sat.Pos(v))
	b.satVars[0] = v
	return v
}

// polItem is a pending polarity request for a gate.
type polItem struct {
	idx int32
	pol uint8
}

// materialize returns the SAT variable for gate root, creating
// variables for the whole cone and emitting the definitional clauses
// for the requested polarity bits (and only those). It uses an
// explicit stack to avoid deep recursion on long mux chains.
func (b *Builder) materialize(root int32, need uint8) int {
	if v := b.satVars[root]; v >= 0 && b.pols[root]&need == need {
		return v
	}
	stack := append(b.stack[:0], polItem{root, need})
	emit := b.emit[:0]
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		add := it.pol &^ b.pols[it.idx]
		if b.satVars[it.idx] < 0 {
			b.satVars[it.idx] = b.solver.NewVar()
		}
		if add == 0 {
			continue
		}
		b.pols[it.idx] |= add
		g := b.gates[it.idx]
		if g.isVar {
			continue
		}
		emit = append(emit, polItem{it.idx, add})
		for _, op := range [2]Node{g.a, g.b} {
			p := add
			if op.negated() {
				p = flipPol(p)
			}
			if op.index() != 0 {
				stack = append(stack, polItem{op.index(), p})
			}
		}
	}
	b.stack, b.emit = stack, emit
	// Every cone variable now exists; emit the newly requested
	// implication directions.
	for _, it := range emit {
		g := b.gates[it.idx]
		v := b.satVars[it.idx]
		la := b.litOfOperand(g.a)
		lb := b.litOfOperand(g.b)
		if it.pol&polPos != 0 {
			// v -> la & lb
			b.solver.AddClause(sat.Neg(v), la)
			b.solver.AddClause(sat.Neg(v), lb)
		}
		if it.pol&polNeg != 0 {
			// la & lb -> v
			b.solver.AddClause(sat.Pos(v), la.Not(), lb.Not())
		}
	}
	return b.satVars[root]
}

func (b *Builder) litOfOperand(n Node) sat.Lit {
	idx := n.index()
	if idx == 0 {
		return sat.MkLit(b.constVar(), n.negated())
	}
	return sat.MkLit(b.satVars[idx], n.negated())
}

// SatVar returns the SAT variable backing node n, if it has been
// materialized (the encoder uses it to freeze the memory-order
// variables against preprocessing).
func (b *Builder) SatVar(n Node) (int, bool) {
	v := b.satVars[n.index()]
	return v, v >= 0
}

// Assert adds the clause requiring the node to be true. The node
// occurs positively, so only that polarity of its cone is encoded.
func (b *Builder) Assert(n Node) {
	if n == True {
		return
	}
	b.solver.AddClause(b.litPol(n, polPos))
}

// AssertOr adds a single clause requiring at least one node to hold.
// This is how blocking clauses and the per-observation exclusion
// clauses of the inclusion check are emitted without auxiliary gates.
// Every node occurs positively in the clause, so each cone is encoded
// for that single polarity.
func (b *Builder) AssertOr(ns ...Node) {
	lits := b.orTmp[:0]
	for _, n := range ns {
		if n == True {
			return // clause trivially satisfied
		}
		if n == False {
			continue
		}
		lits = append(lits, b.litPol(n, polPos))
	}
	b.orTmp = lits
	b.solver.AddClause(lits...)
}

// Eval evaluates the node under the solver's current model
// (valid after a Sat result). The SAT variable of a gate encoded in
// only one polarity is not constrained to equal its definition, so
// such gates (and unmaterialized ones) are evaluated structurally
// from the free-variable assignment; fully encoded gates and
// variables read the solver model directly.
func (b *Builder) Eval(n Node) bool {
	val := b.evalGate(n.index(), nil)
	if n.negated() {
		return !val
	}
	return val
}

func (b *Builder) evalGate(idx int32, memo map[int32]bool) bool {
	if idx == 0 {
		return true
	}
	g := b.gates[idx]
	if v := b.satVars[idx]; v >= 0 && (g.isVar || b.pols[idx] == polBoth) {
		return b.solver.Value(v)
	}
	if g.isVar {
		// Unmaterialized free variable: unconstrained, treat as false.
		return false
	}
	if val, ok := memo[idx]; ok {
		return val
	}
	if memo == nil {
		// Allocated only when a structural descent actually happens;
		// it keeps the walk linear in the cone despite DAG sharing.
		memo = map[int32]bool{}
	}
	val := false
	if b.evalGate(g.a.index(), memo) != g.a.negated() {
		val = b.evalGate(g.b.index(), memo) != g.b.negated()
	}
	memo[idx] = val
	return val
}
