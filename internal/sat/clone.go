package sat

// This file implements formula snapshots for intra-check parallelism:
// CloneFormula produces an independent solver over the same variable
// space and clause database, so a portfolio or a cube pool loads one
// encoded-and-preprocessed CNF instead of re-running the encoder K
// times, and AdoptModelFrom carries a winning clone's model back to
// the solver the rest of the pipeline (observation decoding, trace
// extraction) reads.

// CloneFormula returns an independent snapshot of the solver's
// formula: problem clauses, learned clauses, root-level assignments,
// saved phases, variable activities, and the frozen/eliminated state
// left by Preprocess. Clause literal slices are deep-copied — the
// watched-literal scheme reorders them in place during propagation,
// so sharing them between solvers would race. The elimination stack
// is shared: Preprocess never mutates it after preprocessing
// finishes, and model extension only reads it, so clones reconstruct
// eliminated-variable values from the same record. Budgets (conflict,
// propagation, deadline, memory), fault hooks, restart policy, the
// inprocessing configuration, and the external stop predicate carry
// over; the interrupt flag and any adopted model overlay do not.
//
// The receiver is backtracked to the root level and propagated to a
// fixpoint first (mutations!), so CloneFormula must not run while
// another goroutine solves on the receiver, and concurrent calls on
// one solver must be serialized by the caller — SolveShared and
// SolveCubes clone sequentially before spawning workers.
func (s *Solver) CloneFormula() *Solver {
	s.cancelUntil(0)
	if s.ok && s.propagate() != nil {
		s.ok = false
	}
	n := len(s.assigns)
	c := &Solver{
		ok:            s.ok,
		varInc:        s.varInc,
		claInc:        s.claInc,
		maxLearnts:    s.maxLearnts,
		learntGrowth:  s.learntGrowth,
		budget:        s.budget,
		deadline:      s.deadline,
		propBudget:    s.propBudget,
		memBudget:     s.memBudget,
		faults:        s.faults,
		stop:          s.stop,
		restartPolicy: s.restartPolicy,
		lbdFast:       s.lbdFast,
		lbdSlow:       s.lbdSlow,
		inpro:         s.inpro,     // value copy; vivification cadence restarts with the clone's counters
		elimStack:     s.elimStack, // read-only after Preprocess
		preStats:      s.preStats,
	}
	c.inpro.lastVivify = 0
	c.assigns = append([]lbool(nil), s.assigns...)
	c.phase = append([]bool(nil), s.phase...)
	c.levels = append([]int32(nil), s.levels...)
	c.frozen = append([]bool(nil), s.frozen...)
	c.eliminated = append([]bool(nil), s.eliminated...)
	c.extVals = append([]lbool(nil), s.extVals...)
	c.reasons = make([]*clause, n)
	c.seen = make([]bool, n)
	c.trail = append([]Lit(nil), s.trail...) // root-level units only
	c.qhead = len(c.trail)
	c.watches = make([][]watcher, 2*n)
	c.stats = Stats{Vars: s.stats.Vars}
	c.order.activity = append([]float64(nil), s.order.activity...)
	c.order.indices = make([]int32, n)
	c.order.heap = make([]int32, n)
	for v := range c.order.heap {
		c.order.heap[v] = int32(v)
		c.order.indices[v] = int32(v)
	}
	c.order.rebuild()
	if !c.ok {
		return c
	}

	// Copy the clause database, simplifying against the root
	// assignment: clauses satisfied at the root are dropped and
	// root-false literals removed. At a root propagation fixpoint no
	// attached clause can be unit or empty under the root assignment,
	// so copied clauses keep >= 2 literals; the defensive branches
	// below preserve soundness even if that invariant were broken.
	// Literals, clause structs and watch lists each come from one
	// allocation sized up front.
	total := 0
	for _, cl := range s.clauses {
		total += len(cl.lits)
	}
	for _, cl := range s.learnts {
		total += len(cl.lits)
	}
	arena := make([]Lit, 0, total)
	structs := make([]clause, 0, len(s.clauses)+len(s.learnts))
	c.clauses = make([]*clause, 0, len(s.clauses))
	copyClause := func(cl *clause, learnt bool) {
		if cl.deleted {
			return
		}
		start := len(arena)
		for _, l := range cl.lits {
			switch s.value(l) {
			case lTrue:
				arena = arena[:start]
				return // satisfied at root
			case lFalse:
				continue
			}
			arena = append(arena, l)
		}
		lits := arena[start:len(arena):len(arena)]
		switch len(lits) {
		case 0:
			c.ok = false
		case 1:
			if c.value(lits[0]) == lUndef {
				// Lands after qhead, so the clone's first Solve
				// propagates it.
				c.uncheckedEnqueue(lits[0], nil)
			}
		default:
			structs = append(structs, clause{lits: lits, learnt: learnt,
				activity: cl.activity, lbd: cl.lbd, tier: cl.tier})
			nc := &structs[len(structs)-1]
			if learnt {
				c.learnts = append(c.learnts, nc)
			} else {
				c.clauses = append(c.clauses, nc)
				c.stats.Clauses++
			}
		}
	}
	for _, cl := range s.clauses {
		copyClause(cl, false)
	}
	for _, cl := range s.learnts {
		copyClause(cl, true)
	}
	c.attachAll(c.clauses, c.learnts)
	c.recountLearntLits()
	return c
}

// AdoptModelFrom overlays the satisfying assignment of src — a solver
// over the same variable space, typically a CloneFormula snapshot
// that won a portfolio race or a cube — onto s: until the next Solve
// call on s, Value and ValueLit report src's model (including
// reconstructed values of eliminated variables) without disturbing
// s's own trail or clause database. This is how a winning clone's
// model becomes readable through the encoder the rest of the pipeline
// holds.
func (s *Solver) AdoptModelFrom(src *Solver) {
	ov := make([]lbool, len(s.assigns))
	m := len(src.assigns)
	for v := range ov {
		if v < m {
			ov[v] = boolToLbool(src.Value(v))
		}
	}
	s.adopted = ov
}

// FixedAtRoot reports whether the variable is assigned at the root
// decision level — its value is forced by the formula alone (unit
// clauses and their propagation), independent of search decisions or
// assumptions. Blocking-clause shrinking drops such bits: no model
// can differ there.
func (s *Solver) FixedAtRoot(v int) bool {
	return s.assigns[v] != lUndef && s.levels[v] == 0
}
