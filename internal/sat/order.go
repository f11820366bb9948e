package sat

// This file implements the solver's one built-in theory: "the memory
// order is a strict total order" over n nodes. The order is given as a
// matrix of literals, entry (a, b) true when a comes before b, and the
// theory stands for the transitivity clauses
//
//	¬(a<b) ∨ ¬(b<k) ∨ (a<k)   for every ordered triple of distinct nodes,
//
// which hold cubically many clauses where the matrix itself is only
// quadratic. Over an antisymmetric matrix these clauses say that no
// three nodes form a cycle, and a tournament without 3-cycles is a
// strict total order.
//
// The theory is propagated per trail literal, right after the
// literal's watch list: each assigned entry adds one edge to the
// succ/pred bitset rows, and every path of two processed edges whose
// shortcut is not yet processed implies the shortcut, or is a conflict
// when the shortcut is false. The fixpoint is therefore exactly that of
// unit propagation over the transitivity clauses, and every
// explanation, reason or conflict, is one of them. Reasons are lazy:
// an implied literal keeps the sentinel crefOrder as its reason and
// the two antecedent literals in ante, and reasonLits rebuilds the
// clause when conflict analysis asks for it.

import (
	"math/bits"
	"slices"
)

// OrderTrue and OrderFalse stand for constant entries of an order
// matrix (see SetOrder). OrderFalse is OrderTrue.Not(), so negating an
// entry works the same for constants and literals.
const (
	OrderTrue  Lit = -2
	OrderFalse Lit = -1
)

// crefOrder is the reason of every literal the order theory implies,
// and the conflict it reports; no clause can have this reference (see
// crefBin).
const crefOrder cref = crefUndef - 1

// orderTheory is the state of the order theory. Positions of the
// matrix are indexed a*n+b.
type orderTheory struct {
	n, words int
	// mat holds entry (a, b) and its negation at (b, a); the diagonal
	// is unused.
	mat []Lit
	// lo is the lowest variable of the matrix; the positions a*n+b,
	// a < b, of variable lo+i are pos[off[i]:off[i+1]].
	lo  int
	off []int32
	pos []int32
	// succ and pred hold one bitset row per node: bit b of a's succ
	// row, and bit a of b's pred row, are set once the edge a→b is
	// processed. Constant edges are set for good at install time.
	succ, pred []uint64
	// ante[v-lo] holds the antecedents of the edge implied on v: the
	// literals of the two edges of its path, OrderTrue for a constant.
	ante [][2]Lit
	// thead is the trail position of the next literal to process; it
	// trails qhead only at the root, after Preprocess's rebuild.
	thead int
	// confl is the clause of the last conflict; expl the buffer of
	// reasonLits.
	confl []Lit
	expl  [3]Lit
}

// SetOrder makes "the matrix is a strict total order over n nodes" a
// constraint of the formula. lit(a, b), asked for a < b only, returns
// the literal that is true when node a comes before node b, or
// OrderTrue or OrderFalse for a constant pair; entry (b, a) is its
// negation. A variable may back several entries, in either polarity.
// The constraint is the same as the transitivity clauses over every
// triple of nodes would be, but none of them is stored, except those
// of a triple whose entries share a variable. SetOrder freezes the
// matrix's variables, so Preprocess stays sound with the theory
// attached. It may be called at most once, and only over existing,
// non-eliminated variables. Returns false if the formula is now
// trivially unsatisfiable (the constants form a cycle, or force a
// literal that is false at the root).
func (s *Solver) SetOrder(n int, lit func(a, b int) Lit) bool {
	if s.ord != nil {
		panic("sat: an order theory is already installed")
	}
	s.cancelUntil(0)
	o := &orderTheory{n: n, words: (n + 63) / 64, mat: make([]Lit, n*n)}
	lo, hi := len(s.assigns), -1
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			l := lit(a, b)
			if l >= 0 {
				v := l.Var()
				if v >= len(s.assigns) || s.eliminated[v] {
					panic("sat: order entry references an unknown or eliminated variable")
				}
				lo, hi = min(lo, v), max(hi, v)
			} else if l != OrderTrue && l != OrderFalse {
				panic("sat: order entry is neither a literal nor a constant")
			}
			o.mat[a*n+b], o.mat[b*n+a] = l, l.Not()
		}
	}
	if hi < lo {
		lo, hi = 0, -1
	}
	o.lo = lo
	o.off = make([]int32, hi-lo+2)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if l := o.mat[a*n+b]; l >= 0 {
				o.off[l.Var()-lo+1]++
			}
		}
	}
	for i := 1; i < len(o.off); i++ {
		o.off[i] += o.off[i-1]
	}
	o.pos = make([]int32, o.off[len(o.off)-1])
	fill := slices.Clone(o.off[:len(o.off)-1])
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if l := o.mat[a*n+b]; l >= 0 {
				i := l.Var() - lo
				o.pos[fill[i]] = int32(a*n + b)
				fill[i]++
				s.frozen[l.Var()] = true
			}
		}
	}
	o.ante = make([][2]Lit, hi-lo+1)
	o.succ = make([]uint64, n*o.words)
	o.pred = make([]uint64, n*o.words)
	s.ord = o

	// The constant edges: set them, and imply at the root what each
	// new one forms a path with.
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			x, y := a, b
			switch o.mat[a*n+b] {
			case OrderFalse:
				x, y = b, a
			case OrderTrue:
			default:
				continue
			}
			if s.orderEdge(x, y, OrderTrue) != crefUndef {
				s.ok = false
				return false
			}
		}
	}
	return s.addSharedTriples()
}

// addSharedTriples adds, as ordinary clauses, the transitivity clauses
// of every triple whose entries share a variable. Such a clause folds
// to fewer literals (¬x ∨ ¬(b<k) ∨ ¬x when x backs both a<b and k<a),
// so unit propagation acts on it before the theory sees a path of two
// edges. A matrix whose variables each back one entry has none.
func (s *Solver) addSharedTriples() bool {
	o := s.ord
	var triples [][3]int
	for i := 0; i+1 < len(o.off); i++ {
		ps := o.pos[o.off[i]:o.off[i+1]]
		for j, p := range ps {
			for _, q := range ps[j+1:] {
				a, b, c, d := int(p)/o.n, int(p)%o.n, int(q)/o.n, int(q)%o.n
				var t [3]int
				switch {
				case a == c:
					t = [3]int{a, b, d}
				case a == d:
					t = [3]int{a, b, c}
				case b == c:
					t = [3]int{a, b, d}
				case b == d:
					t = [3]int{a, b, c}
				default:
					continue // no common node, no common triple
				}
				slices.Sort(t[:])
				triples = append(triples, t)
			}
		}
	}
	slices.SortFunc(triples, func(x, y [3]int) int { return slices.Compare(x[:], y[:]) })
	for _, t := range slices.Compact(triples) {
		ij, jk, ik := o.mat[t[0]*o.n+t[1]], o.mat[t[1]*o.n+t[2]], o.mat[t[0]*o.n+t[2]]
		for _, cl := range [2][3]Lit{{ij.Not(), jk.Not(), ik}, {ij, jk, ik.Not()}} {
			if slices.Contains(cl[:], OrderTrue) {
				continue
			}
			lits := slices.DeleteFunc(cl[:], func(l Lit) bool { return l == OrderFalse })
			if !s.AddClause(lits...) {
				return false
			}
		}
	}
	return true
}

// positions returns the positions of the matrix entries variable v
// backs.
func (o *orderTheory) positions(v int) []int32 {
	i := v - o.lo
	if uint(i) >= uint(len(o.off)-1) {
		return nil
	}
	return o.pos[o.off[i]:o.off[i+1]]
}

// propagateOrder processes the trail literals from thead up to qhead
// and returns the conflict (crefOrder, clause in ord.confl), or
// crefUndef.
func (s *Solver) propagateOrder() cref {
	o := s.ord
	for o.thead < s.qhead {
		p := s.trail[o.thead]
		o.thead++
		for _, ix := range o.positions(p.Var()) {
			a, b := int(ix)/o.n, int(ix)%o.n
			if o.mat[ix] != p {
				a, b = b, a
			}
			if c := s.orderEdge(a, b, p); c != crefUndef {
				return c
			}
		}
	}
	return crefUndef
}

// orderEdge records the edge x→y, whose literal is xy, and implies the
// shortcut of every path it completes: x→y→k gives x→k and k→x→y gives
// k→y.
func (s *Solver) orderEdge(x, y int, xy Lit) cref {
	o := s.ord
	w := o.words
	sx, sy := o.succ[x*w:(x+1)*w], o.succ[y*w:(y+1)*w]
	px, py := o.pred[x*w:(x+1)*w], o.pred[y*w:(y+1)*w]
	sx[y>>6] |= 1 << (y & 63)
	py[x>>6] |= 1 << (x & 63)
	for i := range sy {
		for m := sy[i] &^ sx[i]; m != 0; m &= m - 1 {
			k := i<<6 | bits.TrailingZeros64(m)
			if c := s.orderImply(x, k, xy, o.mat[y*o.n+k]); c != crefUndef {
				return c
			}
		}
	}
	for i := range px {
		for m := px[i] &^ py[i]; m != 0; m &= m - 1 {
			k := i<<6 | bits.TrailingZeros64(m)
			if c := s.orderImply(k, y, o.mat[k*o.n+x], xy); c != crefUndef {
				return c
			}
		}
	}
	return crefUndef
}

// orderImply implies the edge a→k of the path whose edges have the
// literals e1 and e2, or reports the conflict when that edge is false.
func (s *Solver) orderImply(a, k int, e1, e2 Lit) cref {
	o := s.ord
	t := o.mat[a*o.n+k]
	switch t {
	case OrderTrue:
		// A constant edge not set yet: only while SetOrder sets them.
		return crefUndef
	case OrderFalse:
	default:
		switch s.value(t) {
		case lTrue:
			return crefUndef // on the trail, not processed yet
		case lUndef:
			s.uncheckedEnqueue(t, crefOrder)
			o.ante[t.Var()-o.lo] = [2]Lit{e1, e2}
			return crefUndef
		}
	}
	o.confl = appendOrderClause(o.confl[:0], t, e1, e2)
	return crefOrder
}

// appendOrderClause appends the transitivity clause ¬e1 ∨ ¬e2 ∨ t,
// leaving out the constants (which are false in it).
func appendOrderClause(out []Lit, t, e1, e2 Lit) []Lit {
	for _, l := range [3]Lit{t, e1.Not(), e2.Not()} {
		if l >= 0 {
			out = append(out, l)
		}
	}
	return out
}

// reasonLits returns the literals of clause c, the reason of p's
// variable, or for p < 0 the conflict. A problem binary's pair is
// first put in the order a region clause has there: the implied
// literal first for a reason, found by variable because litRedundant
// passes the false literal of the variable, and for a conflict the
// order propagate left, blocker first. For the order theory's sentinel
// it returns the transitivity clause that implied p's variable, with
// the variable's true literal first, or, for p < 0, the clause of the
// last conflict; that slice is valid until the next call.
func (s *Solver) reasonLits(c cref, p Lit) []Lit {
	if c != crefOrder {
		lits := s.clauseLits(c)
		if !inRegion(c) && p >= 0 && lits[0].Var() != p.Var() {
			lits[0], lits[1] = lits[1], lits[0]
		}
		return lits
	}
	o := s.ord
	if p < 0 {
		return o.confl
	}
	v := p.Var()
	ante := o.ante[v-o.lo]
	return appendOrderClause(o.expl[:0], MkLit(v, s.assigns[v] == lFalse), ante[0], ante[1])
}

// clearOrderVar clears the edges of variable v's entries, which
// cancelUntil unassigns.
func (o *orderTheory) clearOrderVar(v int) {
	w := o.words
	for _, ix := range o.positions(v) {
		a, b := int(ix)/o.n, int(ix)%o.n
		o.succ[a*w+b>>6] &^= 1 << (b & 63)
		o.pred[b*w+a>>6] &^= 1 << (a & 63)
		o.succ[b*w+a>>6] &^= 1 << (a & 63)
		o.pred[a*w+b>>6] &^= 1 << (b & 63)
	}
}
