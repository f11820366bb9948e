// Package rf is the polynomial reads-from engine, a test oracle for
// the SAT pipeline (no check runs on it): a saturation-based
// consistency engine for candidate executions of litmus-scale
// programs that decides, without SAT, whether a given reads-from
// assignment can be extended to a memory order satisfying the model's
// axioms (cf. "Optimal Reads-From Consistency Checking
// for C11-Style Memory Models", arXiv 2304.03714, and the
// tractability map of "How Hard is Weak-Memory Testing?",
// arXiv 2311.04302).
//
// The engine operates on the applicable fragment identified by Scan:
// straight-line threads of constant assignments, loads and stores
// with concrete addresses, register copies, and fences — exactly the
// shape of classic litmus tests and of the differential fuzzer's
// program space. For one candidate execution (a source store, or the
// initial memory, per load) it derives
//
//   - must-edges: the model's unconditional program-order pairs
//     (memmodel.KeepsProgramOrder), the conditional same-address
//     axiom (memmodel.OrdersSameAddrStore), initialization-first,
//     fence-ordered pairs, and the reads-from edges themselves; and
//   - from-read disjunctions: for a load l reading store s and any
//     other same-address store s2, (s2 <M s) ∨ (l <M s2) — the
//     coherence/maximality constraint of the value axiom.
//
// Saturation maintains the transitive closure incrementally, resolves
// every disjunction one of whose branches would close a cycle, and
// reports inconsistency when a must-edge itself closes one. Because a
// resolved, acyclic edge set admits a linear extension — which is
// then a witness execution satisfying every axiom — the procedure is
// sound; completeness over the residual disjunctions is restored by
// case-splitting, which the per-model tractability results bound
// tightly in practice (litmus-scale instances resolve with no or very
// few splits).
//
// Atomic blocks and, under the Serial model, whole operations are
// contracted into super-node classes before closure, exactly
// mirroring the encoder's order-variable merge classes: the
// atomicity/seriality axioms force every member of such a class to
// relate identically to any outside access, so class-level ordering
// decides event-level ordering and the contiguity axioms hold by
// construction when classes expand in program order.
package rf

import (
	"errors"
	"fmt"

	"checkfence/internal/lsl"
	"checkfence/internal/memmodel"
)

// ErrNotApplicable marks a program outside the reads-from fragment.
var ErrNotApplicable = errors.New("rf: program outside the reads-from fragment")

// ErrBudget marks an exhausted enumeration or case-split budget.
var ErrBudget = errors.New("rf: budget exhausted")

// Event is one memory access of the scanned program. Events are
// created thread by thread in program order, so within one thread the
// index order is the program order.
type Event struct {
	Idx     int
	Thread  int // 0 is the initialization pseudo-thread
	ProgIdx int // program-order position (loads, stores, and fences share the counter)
	IsLoad  bool
	OpID    int // operation invocation id (-1 for none)
	Group   int // atomic block id (-1 for none)

	Addr lsl.Value // concrete pointer
	Loc  lsl.Loc   // Addr as a map key
	Val  lsl.Value // store: concrete value written; load: per-execution
	Desc string    // source form, mirroring encode.Access.Desc
}

// FenceEv is one fence occurrence.
type FenceEv struct {
	Thread  int
	ProgIdx int
	Kind    lsl.FenceKind
}

// Budget bounds the enumeration. Exhaustion returns ErrBudget.
type Budget struct {
	// MaxSteps caps the total DFS work: every candidate reads-from
	// extension attempted counts one step.
	MaxSteps int
	// MaxSplits caps the case splits spent across all consistency
	// decisions of one enumeration.
	MaxSplits int
}

// DefaultBudget is generous for the litmus-scale fragment (a few
// dozen events): typical instances finish in well under a thousand
// steps.
func DefaultBudget() Budget {
	return Budget{MaxSteps: 1 << 17, MaxSplits: 1 << 14}
}

func (b Budget) withDefaults() Budget {
	d := DefaultBudget()
	if b.MaxSteps <= 0 {
		b.MaxSteps = d.MaxSteps
	}
	if b.MaxSplits <= 0 {
		b.MaxSplits = d.MaxSplits
	}
	return b
}

// bitset is a fixed-capacity bit vector over class indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) get(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << uint(i&63) }

func (b bitset) orWith(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

// edge is a class-level ordering constraint u <M v.
type edge struct{ u, v int }

// disjunction is an unresolved from-read constraint: a ∨ b.
type disjunction struct{ a, b edge }

// checker decides consistency of one (partial) candidate execution:
// a transitively closed must-edge relation over the contraction
// classes plus the still-unresolved from-read disjunctions.
type checker struct {
	n     int      // number of classes
	rep   []int    // event index -> class index
	reach []bitset // reach[u].get(v): u precedes v transitively
	disj  []disjunction
}

func (c *checker) clone() *checker {
	cc := &checker{n: c.n, rep: c.rep} // rep is immutable, share it
	cc.reach = make([]bitset, c.n)
	for i, r := range c.reach {
		cc.reach[i] = append(bitset(nil), r...)
	}
	cc.disj = append([]disjunction(nil), c.disj...)
	return cc
}

// addEdge inserts the class-level edge u <M v and maintains the
// transitive closure. It reports false when the edge closes a cycle
// (the execution is inconsistent).
func (c *checker) addEdge(u, v int) bool {
	if u == v {
		return false
	}
	if c.reach[u].get(v) {
		return true
	}
	if c.reach[v].get(u) {
		return false
	}
	for a := 0; a < c.n; a++ {
		if a != u && !c.reach[a].get(u) {
			continue
		}
		c.reach[a].set(v)
		c.reach[a].orWith(c.reach[v])
	}
	return true
}

// must asserts the event-level constraint x <M y. Intra-class pairs
// are decided by program order (class members expand in program
// order, and events of one thread are created in program order).
func (c *checker) must(x, y int) bool {
	cx, cy := c.rep[x], c.rep[y]
	if cx == cy {
		return x < y
	}
	return c.addEdge(cx, cy)
}

// or asserts the event-level disjunction (x1 <M y1) ∨ (x2 <M y2).
// Intra-class disjuncts are decided by program order immediately;
// genuinely binary constraints are queued for saturation.
func (c *checker) or(x1, y1, x2, y2 int) bool {
	c1, d1 := c.rep[x1], c.rep[y1]
	c2, d2 := c.rep[x2], c.rep[y2]
	aIntra, bIntra := c1 == d1, c2 == d2
	if aIntra && x1 < y1 || bIntra && x2 < y2 {
		return true // a disjunct holds by program order
	}
	switch {
	case aIntra && bIntra:
		return false // both refuted by program order
	case aIntra:
		return c.addEdge(c2, d2)
	case bIntra:
		return c.addEdge(c1, d1)
	}
	c.disj = append(c.disj, disjunction{edge{c1, d1}, edge{c2, d2}})
	return true
}

// saturate resolves disjunctions against the current closure to a
// fixpoint: a disjunct already implied discharges its constraint, a
// disjunct that would close a cycle forces the other branch. Reports
// false when a constraint has both branches refuted or a forced edge
// closes a cycle.
func (c *checker) saturate() bool {
	for changed := true; changed; {
		changed = false
		kept := c.disj[:0]
		for _, d := range c.disj {
			switch {
			case c.reach[d.a.u].get(d.a.v) || c.reach[d.b.u].get(d.b.v):
				// Satisfied; drop.
			case c.reach[d.a.v].get(d.a.u):
				// a refuted: b must hold.
				if c.reach[d.b.v].get(d.b.u) || !c.addEdge(d.b.u, d.b.v) {
					return false
				}
				changed = true
			case c.reach[d.b.v].get(d.b.u):
				if !c.addEdge(d.a.u, d.a.v) {
					return false
				}
				changed = true
			default:
				kept = append(kept, d)
			}
		}
		c.disj = kept
	}
	return true
}

// decide completes the consistency decision: after saturation, any
// residual disjunction is case-split (each branch asserted in a
// clone). It returns a fully resolved, acyclic checker when the
// execution is consistent, nil when it is not, and ErrBudget when the
// split budget runs out.
func (c *checker) decide(splits *int, maxSplits int) (*checker, error) {
	if !c.saturate() {
		return nil, nil
	}
	if len(c.disj) == 0 {
		return c, nil
	}
	d := c.disj[0]
	rest := c.disj[1:]
	for _, e := range [2]edge{d.a, d.b} {
		*splits++
		if *splits > maxSplits {
			return nil, ErrBudget
		}
		cc := c.clone()
		cc.disj = append(cc.disj[:0], rest...)
		if cc.addEdge(e.u, e.v) {
			w, err := cc.decide(splits, maxSplits)
			if w != nil || err != nil {
				return w, err
			}
		}
	}
	return nil, nil
}

// linearize produces a deterministic linear extension of the closure:
// Kahn's algorithm picking the lowest-indexed ready class, classes
// expanded in program order. The result lists event indices in the
// witness memory order.
func (c *checker) linearize(classEvents [][]int) []int {
	done := make([]bool, c.n)
	order := make([]int, 0, len(c.rep))
	for placed := 0; placed < c.n; placed++ {
		pick := -1
		for u := 0; u < c.n && pick < 0; u++ {
			if done[u] {
				continue
			}
			ready := true
			for v := 0; v < c.n; v++ {
				if !done[v] && v != u && c.reach[v].get(u) {
					ready = false
					break
				}
			}
			if ready {
				pick = u
			}
		}
		if pick < 0 {
			// Unreachable on an acyclic closure; fail loudly in tests.
			panic("rf: cyclic closure in linearize")
		}
		done[pick] = true
		order = append(order, classEvents[pick]...)
	}
	return order
}

// newChecker builds the contraction classes and the model's base
// must-edges (everything independent of the reads-from choice). The
// returned classEvents lists each class's member events in program
// order. ok is false when the base constraints are already
// inconsistent (impossible for well-formed programs, handled for
// robustness).
func (p *Program) newChecker(model memmodel.Model) (c *checker, classEvents [][]int, ok bool) {
	n := len(p.Events)

	// Union events into contraction classes: atomic blocks always,
	// whole operations under Serial — the encoder's merge classes.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		parent[rb] = ra
	}
	firstGroup := map[int]int{}
	firstOp := map[[2]int]int{}
	for i, ev := range p.Events {
		if ev.Group >= 0 {
			if f, seen := firstGroup[ev.Group]; seen {
				union(f, i)
			} else {
				firstGroup[ev.Group] = i
			}
		}
		if model == memmodel.Serial && ev.Thread != 0 && ev.OpID >= 0 {
			k := [2]int{ev.Thread, ev.OpID}
			if f, seen := firstOp[k]; seen {
				union(f, i)
			} else {
				firstOp[k] = i
			}
		}
	}
	rep := make([]int, n)
	classIdx := map[int]int{}
	for i := range rep {
		r := find(i)
		ci, seen := classIdx[r]
		if !seen {
			ci = len(classEvents)
			classIdx[r] = ci
			classEvents = append(classEvents, nil)
		}
		rep[i] = ci
		classEvents[ci] = append(classEvents[ci], i)
	}

	c = &checker{n: len(classEvents), rep: rep}
	c.reach = make([]bitset, c.n)
	for i := range c.reach {
		c.reach[i] = newBitset(c.n)
	}

	for i := range p.Events {
		a := &p.Events[i]
		for j := range p.Events {
			if i == j {
				continue
			}
			b := &p.Events[j]
			if a.Thread == 0 && b.Thread != 0 {
				if !c.must(i, j) {
					return nil, nil, false
				}
				continue
			}
			if a.Thread != b.Thread || a.ProgIdx >= b.ProgIdx {
				continue
			}
			required := a.Thread == 0 ||
				(a.Group >= 0 && a.Group == b.Group) ||
				model.KeepsProgramOrder(a.IsLoad, b.IsLoad)
			if !required && !b.IsLoad && a.Loc == b.Loc &&
				model.OrdersSameAddrStore(a.IsLoad) {
				// Conditional same-address axiom with concrete addresses.
				required = true
			}
			if required && !c.must(i, j) {
				return nil, nil, false
			}
		}
	}

	// Fence axioms (the encoder asserts them on the weak models; the
	// strong models' program order already covers every fenced pair).
	switch model {
	case memmodel.TSO, memmodel.PSO, memmodel.Relaxed:
		for _, f := range p.Fences {
			for i := range p.Events {
				a := &p.Events[i]
				if a.Thread != f.Thread || a.ProgIdx >= f.ProgIdx || !f.Kind.OrdersBefore(a.IsLoad) {
					continue
				}
				for j := range p.Events {
					b := &p.Events[j]
					if b.Thread != f.Thread || b.ProgIdx <= f.ProgIdx || !f.Kind.OrdersAfter(b.IsLoad) {
						continue
					}
					if !c.must(i, j) {
						return nil, nil, false
					}
				}
			}
		}
	}
	return c, classEvents, true
}

// fwdVisible mirrors the encoder's store-forwarding clause: on models
// with a store buffer, a program-order-earlier store of the same
// thread is visible to the load regardless of the global order.
func fwdVisible(model memmodel.Model, s, l *Event) bool {
	return model.Forwards() && s.Thread == l.Thread && s.ProgIdx < l.ProgIdx
}

// addLoad asserts the value-axiom constraints of load l reading from
// source src (an event index, or -1 for the initial memory): the
// reads-from edge, and per other same-address store the
// coherence/maximality constraint (s2 <M src) ∨ (l <M s2), with
// forwarding-visible stores forcing the first branch. Reports false
// when the choice is already inconsistent.
func (c *checker) addLoad(p *Program, model memmodel.Model, l, src int) bool {
	le := &p.Events[l]
	if src >= 0 {
		se := &p.Events[src]
		if !fwdVisible(model, se, le) && !c.must(src, l) {
			return false
		}
	}
	for s2 := range p.Events {
		e2 := &p.Events[s2]
		if e2.IsLoad || s2 == l || s2 == src || e2.Loc != le.Loc {
			continue
		}
		if src < 0 {
			// Reading initial memory: no store may be visible.
			if fwdVisible(model, e2, le) {
				return false
			}
			if !c.must(l, s2) {
				return false
			}
			continue
		}
		if fwdVisible(model, e2, le) {
			// s2 is unconditionally visible, so it must precede src.
			if !c.must(s2, src) {
				return false
			}
			continue
		}
		if !c.or(s2, src, l, s2) {
			return false
		}
	}
	return true
}

// internal sanity: an Event's Loc must match its Addr.
func (ev *Event) checkLoc() error {
	if ev.Addr.Kind != lsl.KindPtr {
		return fmt.Errorf("rf: event %d has non-pointer address %v", ev.Idx, ev.Addr)
	}
	if lsl.LocOf(ev.Addr) != ev.Loc {
		return fmt.Errorf("rf: event %d location mismatch", ev.Idx)
	}
	return nil
}
