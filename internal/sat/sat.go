// Package sat implements a CDCL (conflict-driven clause learning)
// propositional satisfiability solver in the style of Chaff/MiniSat.
//
// CheckFence's PLDI'07 prototype delegated to zChaff; this package is
// the from-scratch replacement. It provides the two capabilities the
// paper's method needs: solving CNF formulas with models, and
// incremental solving. Clauses may be added between Solve calls, which
// the specification-mining loop uses for blocking clauses and the lazy
// loop-bound probes for their overflow clause. Solving under
// assumptions is what the model sweep's per-model selectors use. Each
// check runs one solver on one encoding; parallelism lives above a
// check (suite workers, the daemon).
//
// Techniques: two-watched-literal propagation, first-UIP conflict
// analysis with recursive clause minimization, VSIDS variable activity
// with phase saving, Glucose-style LBD-driven restarts, a three-tier
// LBD-based learnt-clause database and chronological backtracking
// (learnts.go). One theory is built in (order.go): a matrix of
// literals is a strict total order, propagated in place of the
// memory order's cubically many transitivity clauses. SatELite-style
// preprocessing (preprocess.go) simplifies the formula once before
// search; a formula bound for it loads unwatched (BulkLoad) and gets
// its watch lists in one pass at the first Solve. Clauses live in one flat, pointer-free region addressed
// by 32-bit references (store.go).
package sat

import (
	"fmt"
	"slices"
	"time"

	"checkfence/internal/faultinject"
)

// Lit is a literal: variable index shifted left once, low bit set for
// negative polarity.
type Lit int32

// MkLit builds a literal from a variable index and a sign
// (sign=true means negated).
func MkLit(v int, sign bool) Lit {
	l := Lit(v << 1)
	if sign {
		l |= 1
	}
	return l
}

// Pos returns the positive literal of variable v.
func Pos(v int) Lit { return Lit(v << 1) }

// Neg returns the negative literal of variable v.
func Neg(v int) Lit { return Lit(v<<1) | 1 }

// Not negates the literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Var returns the variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Sign reports whether the literal is negative.
func (l Lit) Sign() bool { return l&1 == 1 }

func (l Lit) String() string {
	if l.Sign() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

// lbool is a three-valued boolean.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func boolToLbool(b bool) lbool {
	if b {
		return lTrue
	}
	return lFalse
}

// Status is the result of a Solve call.
type Status int

const (
	// Unknown means the solver stopped before reaching a verdict
	// (budget exhausted).
	Unknown Status = iota
	// Sat means a model was found.
	Sat
	// Unsat means the formula (under the given assumptions) is
	// unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// A watcher is one entry of a watch list: the watched clause and a
// blocker literal whose truth lets propagation skip the clause without
// reading it. It holds no pointer.
type watcher struct {
	c       cref
	blocker Lit
}

type varOrder struct {
	heap     []int32 // variable indices
	indices  []int32 // position in heap, -1 if absent
	activity []float64
}

func (o *varOrder) less(a, b int32) bool { return o.activity[a] > o.activity[b] }

func (o *varOrder) push(v int) {
	if o.indices[v] >= 0 {
		return
	}
	o.heap = append(o.heap, int32(v))
	o.indices[v] = int32(len(o.heap) - 1)
	o.up(len(o.heap) - 1)
}

func (o *varOrder) up(i int) {
	v := o.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !o.less(v, o.heap[p]) {
			break
		}
		o.heap[i] = o.heap[p]
		o.indices[o.heap[i]] = int32(i)
		i = p
	}
	o.heap[i] = v
	o.indices[v] = int32(i)
}

func (o *varOrder) down(i int) {
	v := o.heap[i]
	n := len(o.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && o.less(o.heap[c+1], o.heap[c]) {
			c++
		}
		if !o.less(o.heap[c], v) {
			break
		}
		o.heap[i] = o.heap[c]
		o.indices[o.heap[i]] = int32(i)
		i = c
	}
	o.heap[i] = v
	o.indices[v] = int32(i)
}

func (o *varOrder) pop() int {
	v := o.heap[0]
	last := o.heap[len(o.heap)-1]
	o.heap = o.heap[:len(o.heap)-1]
	o.indices[v] = -1
	if len(o.heap) > 0 {
		o.heap[0] = last
		o.indices[last] = 0
		o.down(0)
	}
	return int(v)
}

func (o *varOrder) empty() bool { return len(o.heap) == 0 }

// rebuild re-heapifies after a bulk activity rewrite.
func (o *varOrder) rebuild() {
	for i := len(o.heap)/2 - 1; i >= 0; i-- {
		o.down(i)
	}
}

// Stats reports solver work counters. The Pre* and preprocessing
// fields are zero unless Preprocess ran. Clauses and PreClauses count
// stored problem clauses only: the order theory (SetOrder) stores none
// of the transitivity clauses it stands for. After bulk intake
// (BulkLoad) PreClauses is a little larger: units are not propagated
// on arrival, so clauses their consequences satisfy are stored too.
type Stats struct {
	Vars         int
	Clauses      int
	Learnts      int
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64

	// Preprocessing counters (see Preprocess).
	PreVars             int
	PreClauses          int
	VarsEliminated      int
	ClausesSubsumed     int
	ClausesStrengthened int
	PreprocessTime      time.Duration

	// Learnt-database counters (see learnts.go): ChronoBacktracks
	// counts conflicts resolved by a chronological (one-level)
	// backtrack; TierCore/TierMid/TierLocal snapshot the tiers.
	ChronoBacktracks int64
	TierCore         int
	TierMid          int
	TierLocal        int
}

// Solver is an incremental CDCL SAT solver. The zero value is not
// usable; construct with New.
type Solver struct {
	// ca holds every problem and learnt clause (see store.go); clauses
	// and learnts list their references in insertion order.
	ca      region
	clauses []cref
	learnts []cref
	watches [][]watcher // indexed by literal

	assigns  []lbool
	phase    []bool // saved phases
	levels   []int32
	reasons  []cref // crefUndef for decisions, units and unassigned variables
	trail    []Lit
	trailLim []int
	qhead    int

	order  varOrder
	varInc float64
	claInc float64

	ok       bool // false once an empty clause is derived at level 0
	stats    Stats
	budget   int64 // max conflicts per Solve; 0 = unlimited
	seen     []bool
	analyzeT []Lit // temporary for minimization

	// Scratch buffers of conflict analysis: the learnt clause under
	// construction (record copies it into the region) and the work
	// stack and undo list of litRedundant.
	learntTmp []Lit
	redStack  []Lit
	redUndo   []int

	// Resource budgets beyond the conflict cap (see budget.go):
	// wall-clock deadline and the approximate byte ceiling on the
	// learned-clause database tracked via learntLits.
	// budgetErr records why the last Solve returned Unknown when a
	// budget was the cause; faults is the optional fault-injection
	// hook.
	deadline   time.Time
	memBudget  int64
	learntLits int64
	budgetErr  *ErrBudget
	faults     faultinject.Faults

	// lbdStamp/lbdGen implement the reusable stamp array of
	// computeLBD: lbdStamp[level] == lbdGen marks a decision level as
	// counted for the current clause, avoiding a map allocation per
	// learnt clause.
	lbdStamp []int64
	lbdGen   int64

	// Learnt-database state (see learnts.go): the tier bounds and
	// chrono threshold, and a scratch buffer for reduceDB.
	search    searchConfig
	reduceTmp []cref

	// addTmp is AddClause's normalization buffer.
	addTmp []Lit

	// bulk is set while clauses load unwatched (see BulkLoad): from
	// BulkLoad, and again from Preprocess's rebuild, until the next
	// Preprocess or Solve attaches every clause in one pass.
	bulk bool

	// stop is an optional external stop predicate (e.g. a context
	// check), polled in the solve loop.
	stop func() bool

	// ord is the order theory (see order.go), nil until SetOrder.
	ord *orderTheory

	maxLearnts   float64
	learntGrowth float64

	// Glucose-style restart state: exponential moving averages of
	// learnt-clause LBD, fast and slow.
	lbdFast float64
	lbdSlow float64

	// Preprocessing state (see preprocess.go). frozen marks variables
	// exempt from elimination; eliminated marks variables removed by
	// bounded variable elimination; elimStack records their original
	// clauses, stored in elimLits, for model extension; extVals overlays
	// model values for eliminated variables after a Sat result.
	frozen     []bool
	eliminated []bool
	elimStack  []elimEntry
	elimLits   []Lit
	extVals    []lbool
	preStats   preStats
}

// elimEntry records one eliminated variable together with the
// original clauses that mentioned it, in elimination order. Its
// clauses are elimLits[off:end], each stored as its length followed by
// its literals. Model extension replays the stack in reverse.
type elimEntry struct {
	v        int32
	off, end uint32
}

type preStats struct {
	preVars             int
	preClauses          int
	varsEliminated      int
	clausesSubsumed     int
	clausesStrengthened int
	preprocessTime      time.Duration
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{
		ok:           true,
		varInc:       1.0,
		claInc:       1.0,
		maxLearnts:   4000,
		learntGrowth: 1.3,
		search:       defaultSearch(),
	}
}

// NewVar introduces a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	if s.faults != nil && s.faults.Fire(faultinject.SolverAlloc) {
		// Simulated allocation failure: a real one would be a runtime
		// panic here too, so the hook panics and relies on the
		// isolation layer above to convert it into a typed error.
		panic(faultinject.Injected{Site: faultinject.SolverAlloc})
	}
	v := len(s.assigns)
	if v == cap(s.assigns) {
		s.reserveVars(max(2*v, 64))
	}
	s.assigns = append(s.assigns, lUndef)
	s.phase = append(s.phase, false)
	s.levels = append(s.levels, 0)
	s.reasons = append(s.reasons, crefUndef)
	s.watches = append(s.watches, nil, nil)
	s.order.activity = append(s.order.activity, 0)
	s.order.indices = append(s.order.indices, -1)
	s.order.push(v)
	s.seen = append(s.seen, false)
	s.frozen = append(s.frozen, false)
	s.eliminated = append(s.eliminated, false)
	s.extVals = append(s.extVals, lUndef)
	s.stats.Vars++
	return v
}

// reserveVars grows every per-variable slice to capacity n at once.
// NewVar doubles the capacity this way, so a formula of n variables
// allocates about 2n slots per slice in total, where append's 1.25x
// growth of large slices would allocate about 5n along the way.
func (s *Solver) reserveVars(n int) {
	s.assigns = growCap(s.assigns, n)
	s.phase = growCap(s.phase, n)
	s.levels = growCap(s.levels, n)
	s.reasons = growCap(s.reasons, n)
	s.watches = growCap(s.watches, 2*n)
	s.order.activity = growCap(s.order.activity, n)
	s.order.indices = growCap(s.order.indices, n)
	s.order.heap = growCap(s.order.heap, n)
	s.seen = growCap(s.seen, n)
	s.frozen = growCap(s.frozen, n)
	s.eliminated = growCap(s.eliminated, n)
	s.extVals = growCap(s.extVals, n)
}

// growCap returns xs with capacity at least n. slices.Grow clears only
// the new tail, where make-and-copy would clear the whole array first.
func growCap[T any](xs []T, n int) []T {
	if cap(xs) >= n {
		return xs
	}
	return slices.Grow(xs, n-len(xs))
}

// BulkLoad switches clause intake to bulk mode until the next
// Preprocess or Solve. AddClause still normalizes each clause against
// the root assignment, drops tautologies and rejects eliminated
// variables, but it stores the clause without watching it and
// enqueues a unit without propagating it. Preprocess, or else the
// first Solve, then builds every watch list in one pass and
// propagates the pending units; a Solve whose propagation conflicts
// answers Unsat. Preprocess leaves the solver in bulk mode again, so
// clauses added between it and the first Solve load the same way.
//
// Bulk intake suits a formula that Preprocess rebuilds anyway: it
// ends with the same working set as one-by-one intake, without the
// watch lists Preprocess would throw away. A formula solved as loaded
// is better off without it: propagating each unit as it arrives drops
// root-satisfied clauses and false literals from the clauses after
// it, which keeps that formula smaller.
func (s *Solver) BulkLoad() { s.bulk = true }

// attachPending ends bulk mode: it builds every watch list over the
// problem and learnt clauses in one pass. The units enqueued meanwhile
// are still pending on the trail for the next propagate.
func (s *Solver) attachPending() {
	if s.bulk {
		s.bulk = false
		s.attachAll(s.clauses, s.learnts)
	}
}

// Freeze exempts a variable from elimination during Preprocess.
// Callers must freeze every variable that later clauses, assumptions,
// or model reads may reference — in CheckFence these are the error
// literal, the observation bits, and the memory-order variables of
// the incremental mining loop.
func (s *Solver) Freeze(v int) { s.frozen[v] = true }

// Eliminated reports whether Preprocess removed the variable by
// bounded variable elimination. Its model value is still available
// through Value (reconstructed by model extension), but it must not
// appear in new clauses or assumptions.
func (s *Solver) Eliminated(v int) bool { return s.eliminated[v] }

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of problem clauses added (after
// level-0 simplification of units).
func (s *Solver) NumClauses() int { return s.stats.Clauses }

// Stats returns a snapshot of the work counters.
func (s *Solver) Stats() Stats {
	st := s.stats
	st.Learnts = len(s.learnts)
	for _, c := range s.learnts {
		switch s.ca.tier(c) {
		case tierCore:
			st.TierCore++
		case tierMid:
			st.TierMid++
		default:
			st.TierLocal++
		}
	}
	st.PreVars = s.preStats.preVars
	st.PreClauses = s.preStats.preClauses
	st.VarsEliminated = s.preStats.varsEliminated
	st.ClausesSubsumed = s.preStats.clausesSubsumed
	st.ClausesStrengthened = s.preStats.clausesStrengthened
	st.PreprocessTime = s.preStats.preprocessTime
	return st
}

// SetBudget limits the number of conflicts a single Solve may use
// (0 = unlimited). When exhausted, Solve returns Unknown.
func (s *Solver) SetBudget(conflicts int64) { s.budget = conflicts }

// SetStop installs an external stop predicate, checked at Solve entry
// and polled periodically in the solve loop (every few hundred
// iterations, so it may be modestly expensive, e.g. a context or
// deadline check). A true return makes Solve return Unknown; the
// predicate may be raised from another goroutine, and all clauses
// learned before the stop remain attached and sound. nil removes the
// predicate.
func (s *Solver) SetStop(stop func() bool) { s.stop = stop }

func (s *Solver) value(l Lit) lbool {
	v := s.assigns[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Sign() {
		if v == lTrue {
			return lFalse
		}
		return lTrue
	}
	return v
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a clause. It may be called before or between Solve
// calls (the solver backtracks to the root level first). Returns false
// if the formula is now trivially unsatisfiable; in bulk mode (see
// BulkLoad) a conflict only propagation would reveal shows at the next
// Preprocess or Solve instead. AddClause copies lits, so the caller
// may reuse the slice as soon as it returns.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	s.cancelUntil(0)

	// Normalize in the scratch buffer: sort, drop duplicate/false
	// literals, detect tautology.
	ls := append(s.addTmp[:0], lits...)
	s.addTmp = ls
	slices.Sort(ls)
	out := ls[:0]
	var prev Lit = -1
	for _, l := range ls {
		if int(l)>>1 >= len(s.assigns) {
			panic(fmt.Sprintf("sat: literal %v references unknown variable", l))
		}
		if s.eliminated[l.Var()] {
			// A clause over an eliminated variable breaks the
			// equisatisfiability argument of variable elimination;
			// callers must Freeze variables they add clauses over later.
			panic(fmt.Sprintf("sat: literal %v references eliminated variable", l))
		}
		if l == prev {
			continue
		}
		if l == prev.Not() && prev >= 0 {
			return true // tautology
		}
		switch s.value(l) {
		case lTrue:
			if s.levels[l.Var()] == 0 {
				return true // already satisfied at root
			}
		case lFalse:
			if s.levels[l.Var()] == 0 {
				continue // drop root-false literal
			}
		}
		out = append(out, l)
		prev = l
	}

	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		if s.value(out[0]) == lFalse {
			s.ok = false
			return false
		}
		if s.value(out[0]) == lUndef {
			s.uncheckedEnqueue(out[0], crefUndef)
			if !s.bulk && s.propagate() != crefUndef {
				s.ok = false
				return false
			}
		}
		return true
	}
	c := s.ca.alloc(out, false)
	if len(s.clauses) == cap(s.clauses) {
		// Double rather than let append grow a large slice by 1.25x.
		s.clauses = growCap(s.clauses, max(2*len(s.clauses), minClauseList))
	}
	s.clauses = append(s.clauses, c)
	s.stats.Clauses++
	if !s.bulk {
		s.attach(c)
	}
	return true
}

// minClauseList is the first capacity of the problem-clause list.
const minClauseList = 32

func (s *Solver) attach(c cref) {
	lits := s.ca.lits(c)
	l0, l1 := lits[0], lits[1]
	s.watches[l0.Not()] = append(s.watches[l0.Not()], watcher{c, l1})
	s.watches[l1.Not()] = append(s.watches[l1.Not()], watcher{c, l0})
}

// attachAll builds every watch list from scratch over the given clause
// lists, in order. The watchers, and their order, are exactly those of
// attaching each clause in turn to empty lists, but a counting pass
// first cuts all lists from one backing array, so no list grows
// one append at a time.
func (s *Solver) attachAll(lists ...[]cref) {
	counts := make([]int32, len(s.watches))
	total := 0
	for _, cs := range lists {
		for _, c := range cs {
			lits := s.ca.lits(c)
			counts[lits[0].Not()]++
			counts[lits[1].Not()]++
			total += 2
		}
	}
	backing := make([]watcher, total)
	off := 0
	for l, n := range counts {
		end := off + int(n)
		s.watches[l] = backing[off:off:end]
		off = end
	}
	for _, cs := range lists {
		for _, c := range cs {
			s.attach(c)
		}
	}
}

func (s *Solver) uncheckedEnqueue(l Lit, reason cref) {
	v := l.Var()
	s.assigns[v] = boolToLbool(!l.Sign())
	s.levels[v] = int32(s.decisionLevel())
	s.reasons[v] = reason
	s.trail = append(s.trail, l)
}

// propagate runs unit propagation, and the order theory's after each
// literal's watch list, to a fixpoint and returns the conflicting
// clause, or crefUndef.
func (s *Solver) propagate() cref {
	// Propagation allocates no clause, so the region stays put.
	mem := s.ca.mem
	if s.ord != nil {
		// Catch up on root literals Preprocess's rebuild skipped.
		if c := s.propagateOrder(); c != crefUndef {
			s.qhead = len(s.trail)
			return c
		}
	}
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		ws := s.watches[p]
		j := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				ws[j] = w
				j++
				continue
			}
			c := w.c
			base := int(c) + hdrWords
			lits := mem[base : base+int(mem[c])]
			// Ensure the false literal is at position 1.
			if lits[0] == p.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				ws[j] = watcher{c, first}
				j++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					nl := lits[1].Not()
					s.watches[nl] = append(s.watches[nl], watcher{c, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{c, first}
			j++
			if s.value(first) == lFalse {
				// Conflict: copy back remaining watchers and bail.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return c
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = ws[:j]
		if s.ord != nil {
			if c := s.propagateOrder(); c != crefUndef {
				s.qhead = len(s.trail)
				return c
			}
		}
	}
	return crefUndef
}

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	end := s.trailLim[level]
	o := s.ord
	for i := len(s.trail) - 1; i >= end; i-- {
		l := s.trail[i]
		v := l.Var()
		if o != nil && i < o.thead {
			o.clearOrderVar(v)
		}
		s.phase[v] = !l.Sign()
		s.assigns[v] = lUndef
		s.reasons[v] = crefUndef
		s.order.push(v)
	}
	if o != nil {
		o.thead = min(o.thead, end)
	}
	s.trail = s.trail[:end]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.order.activity[v] += s.varInc
	if s.order.activity[v] > 1e100 {
		for i := range s.order.activity {
			s.order.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if i := s.order.indices[v]; i >= 0 {
		s.order.up(int(i))
	}
}

func (s *Solver) bumpClause(c cref) {
	a := s.ca.activity(c) + s.claInc
	s.ca.setActivity(c, a)
	if a > 1e20 {
		for _, lc := range s.learnts {
			s.ca.setActivity(lc, s.ca.activity(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.learntTmp[:0], 0) // reserve slot for asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		lits := s.reasonLits(confl, p)
		if confl != crefOrder {
			s.bumpClause(confl)
			if s.ca.learnt(confl) {
				// Mark learnt antecedents used (tier retention) and
				// tighten their LBD — every literal of an antecedent is
				// assigned here, so the recomputation is exact; a better
				// LBD can promote the clause into a longer-lived tier.
				s.ca.setUsed(confl, true)
				if lbd := s.ca.lbd(confl); lbd > 2 {
					if nl := s.computeLBD(lits); nl < lbd {
						s.ca.setLBD(confl, nl)
						if t := s.tierFor(nl); t < s.ca.tier(confl) {
							s.ca.setTier(confl, t)
						}
					}
				}
			}
		}
		start := 0
		if p != -1 {
			start = 1
		}
		for _, q := range lits[start:] {
			v := q.Var()
			if !s.seen[v] && s.levels[v] > 0 {
				s.seen[v] = true
				s.bumpVar(v)
				if int(s.levels[v]) >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Find next literal on trail to expand.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reasons[p.Var()]
		// Reason clauses store the implied literal first; skip it. The
		// order theory's explanations are built that way.
		if confl == crefOrder {
			continue
		}
		if lits := s.ca.lits(confl); lits[0] != p {
			// normalize so lits[0] == p
			for i, l := range lits {
				if l == p {
					lits[0], lits[i] = lits[i], lits[0]
					break
				}
			}
		}
	}
	s.learntTmp = learnt
	learnt[0] = p.Not()

	// Minimize: drop literals implied by the rest of the clause
	// (recursive self-subsumption, MiniSat's ccmin).
	s.analyzeT = s.analyzeT[:0]
	levels := uint64(0)
	for _, l := range learnt[1:] {
		s.seen[l.Var()] = true
		s.analyzeT = append(s.analyzeT, l)
		levels |= 1 << uint(s.levels[l.Var()]&63)
	}
	out := learnt[:1]
	for _, l := range learnt[1:] {
		if s.reasons[l.Var()] == crefUndef || !s.litRedundant(l, levels) {
			out = append(out, l)
		}
	}
	for _, l := range s.analyzeT {
		s.seen[l.Var()] = false
	}
	s.seen[p.Var()] = false

	// Compute backtrack level: max level among out[1:].
	btLevel := 0
	if len(out) > 1 {
		maxI := 1
		for i := 2; i < len(out); i++ {
			if s.levels[out[i].Var()] > s.levels[out[maxI].Var()] {
				maxI = i
			}
		}
		out[1], out[maxI] = out[maxI], out[1]
		btLevel = int(s.levels[out[1].Var()])
	}
	return out, btLevel
}

// litRedundant reports whether literal l in a learnt clause is implied
// by the remaining literals, following reason chains recursively
// (levels is a 64-bit Bloom filter of the clause's decision levels —
// a literal whose chain leaves those levels can never be redundant).
func (s *Solver) litRedundant(l Lit, levels uint64) bool {
	stack := append(s.redStack[:0], l)
	undo := s.redUndo[:0]
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, cl := range s.reasonLits(s.reasons[q.Var()], q) {
			if cl == q || cl == q.Not() {
				continue
			}
			v := cl.Var()
			if s.levels[v] == 0 || s.seen[v] {
				continue
			}
			if s.reasons[v] == crefUndef || levels&(1<<uint(s.levels[v]&63)) == 0 {
				// Not derivable within the clause's levels: undo all
				// tentative markings and fail.
				for _, uv := range undo {
					s.seen[uv] = false
				}
				s.redStack, s.redUndo = stack[:0], undo[:0]
				return false
			}
			s.seen[v] = true
			undo = append(undo, v)
			stack = append(stack, cl)
		}
	}
	// Markings of literals proven redundant stay; they are cleared by
	// the caller via analyzeT... except these are extra variables, so
	// clear them here conservatively after recording for clearing.
	for _, uv := range undo {
		s.analyzeT = append(s.analyzeT, MkLit(uv, false))
	}
	s.redStack, s.redUndo = stack[:0], undo[:0]
	return true
}

// computeLBD counts the distinct decision levels among lits (the
// "literal block distance" of Glucose). It runs on every conflict, so
// it stamps levels in a reusable array instead of allocating a set.
// The array grows to the highest level seen: levels are not bounded
// by the variable count, because an assumption that is already true
// opens an empty level.
func (s *Solver) computeLBD(lits []Lit) int {
	s.lbdGen++
	lbd := 0
	for _, l := range lits {
		lv := s.levels[l.Var()]
		if int(lv) >= len(s.lbdStamp) {
			grown := make([]int64, max(int(lv)+1, len(s.assigns)+1))
			copy(grown, s.lbdStamp)
			s.lbdStamp = grown
		}
		if s.lbdStamp[lv] != s.lbdGen {
			s.lbdStamp[lv] = s.lbdGen
			lbd++
		}
	}
	return lbd
}

func (s *Solver) record(lits []Lit) {
	if len(lits) == 1 {
		s.uncheckedEnqueue(lits[0], crefUndef)
		s.updateLBD(1)
		return
	}
	lbd := s.computeLBD(lits)
	c := s.ca.alloc(lits, true)
	s.ca.setLBD(c, lbd)
	s.ca.setTier(c, s.tierFor(lbd))
	s.learnts = append(s.learnts, c)
	s.learntLits += int64(len(lits))
	s.attach(c)
	s.bumpClause(c)
	s.uncheckedEnqueue(lits[0], c)
	s.updateLBD(float64(lbd))
}

// updateLBD maintains the fast/slow LBD moving averages driving the
// Glucose-style restart policy.
func (s *Solver) updateLBD(lbd float64) {
	if s.lbdFast == 0 {
		s.lbdFast, s.lbdSlow = lbd, lbd
		return
	}
	s.lbdFast += (lbd - s.lbdFast) / 32
	s.lbdSlow += (lbd - s.lbdSlow) / 4096
}

func (s *Solver) locked(c cref) bool {
	l := s.ca.lits(c)[0]
	return s.value(l) == lTrue && s.reasons[l.Var()] == c
}

func (s *Solver) detach(c cref) {
	lits := s.ca.lits(c)
	for _, l := range [2]Lit{lits[0].Not(), lits[1].Not()} {
		ws := s.watches[l]
		for i, w := range ws {
			if w.c == c {
				ws[i] = ws[len(ws)-1]
				s.watches[l] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// Solve searches for a model extending the given assumptions. It
// returns Sat, Unsat, or Unknown (stopped or budget exhausted —
// BudgetErr tells which).
func (s *Solver) Solve(assumptions ...Lit) Status {
	s.budgetErr = nil
	if !s.ok {
		return Unsat
	}
	// Check the external stop predicate once at entry: a multi-solve
	// procedure (mining, the two-phase inclusion check) whose
	// individual solves are too short to reach the periodic in-loop
	// checkpoint still observes a cancellation raised between solves.
	if s.stop != nil && s.stop() {
		return Unknown
	}
	var solveStart time.Time
	if !s.deadline.IsZero() {
		solveStart = time.Now()
		if solveStart.After(s.deadline) {
			// Already past the deadline: don't start at all.
			s.budgetErr = &ErrBudget{Kind: BudgetDeadline, Spent: 0}
			return Unknown
		}
	}
	for _, a := range assumptions {
		if s.eliminated[a.Var()] {
			panic(fmt.Sprintf("sat: assumption %v references eliminated variable", a))
		}
	}
	s.cancelUntil(0)
	s.attachPending()
	if s.propagate() != crefUndef {
		s.ok = false
		return Unsat
	}

	conflicts := int64(0)
	sinceRestart := int64(0)
	var ticks int64

	for {
		// Interruption check points: the external predicate, the slow
		// budget axes (deadline, memory), and the fault
		// hooks every 128 iterations.
		ticks++
		if s.stop != nil && ticks&127 == 0 && s.stop() {
			s.cancelUntil(0)
			return Unknown
		}
		if ticks&127 == 0 {
			if be := s.checkBudgets(solveStart); be != nil {
				s.budgetErr = be
				s.cancelUntil(0)
				return Unknown
			}
		}
		confl := s.propagate()
		if confl != crefUndef {
			conflicts++
			sinceRestart++
			s.stats.Conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			if len(learnt) > 1 && s.decisionLevel()-btLevel > s.search.chrono {
				// Chronological backtracking: the asserting level is far
				// below; undo one level and assert the learnt literal
				// there instead of discarding the whole prefix. The
				// trail stays level-monotone, so analysis invariants
				// hold unchanged.
				btLevel = s.decisionLevel() - 1
				s.stats.ChronoBacktracks++
			}
			s.cancelUntil(btLevel)
			s.record(learnt)
			s.varInc /= 0.95
			s.claInc /= 0.999
			continue
		}

		if s.budget > 0 && conflicts >= s.budget {
			s.budgetErr = &ErrBudget{Kind: BudgetConflicts, Spent: conflicts}
			s.cancelUntil(0)
			return Unknown
		}
		// Restart check, Glucose-style: when recent learnt clauses
		// have markedly worse LBD than the long-run average, the
		// search has drifted.
		if sinceRestart >= 100 && s.lbdFast > 1.25*s.lbdSlow {
			sinceRestart = 0
			s.stats.Restarts++
			s.cancelUntil(0)
			continue
		}
		if len(s.learnts) >= int(s.maxLearnts) {
			s.reduceDB()
			s.maxLearnts *= s.learntGrowth
		}

		// Enqueue assumptions first, one per decision level, so that
		// backtracking re-establishes them naturally. If an
		// assumption is already falsified by the formula together
		// with earlier assumptions, the problem is unsatisfiable
		// under these assumptions (the formula itself stays intact).
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				// Already satisfied; open an empty level to keep the
				// level <-> assumption-index correspondence.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				s.cancelUntil(0)
				return Unsat
			default:
				s.stats.Decisions++
				s.trailLim = append(s.trailLim, len(s.trail))
				s.uncheckedEnqueue(a, crefUndef)
				continue
			}
		}

		// Pick a branching variable. Eliminated variables are skipped:
		// no clause mentions them, and their model values come from
		// extendModel instead.
		v := -1
		for !s.order.empty() {
			cand := s.order.pop()
			if s.assigns[cand] == lUndef && !s.eliminated[cand] {
				v = cand
				break
			}
		}
		if v == -1 {
			s.extendModel()
			return Sat // all variables assigned
		}
		s.stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(MkLit(v, !s.phase[v]), crefUndef)
	}
}

// Value returns the model value of variable v after a Sat result.
// Values of eliminated variables are reconstructed by model
// extension.
func (s *Solver) Value(v int) bool {
	if s.eliminated[v] {
		return s.extVals[v] == lTrue
	}
	return s.assigns[v] == lTrue
}

// FixedAtRoot reports whether the variable is assigned at the root
// decision level — its value is forced by the formula alone (unit
// clauses and their propagation), independent of search decisions or
// assumptions. Blocking-clause shrinking drops such bits: no model
// can differ there.
func (s *Solver) FixedAtRoot(v int) bool {
	return s.assigns[v] != lUndef && s.levels[v] == 0
}

// ValueLit returns the model value of a literal after a Sat result.
func (s *Solver) ValueLit(l Lit) bool {
	if l.Sign() {
		return !s.Value(l.Var())
	}
	return s.Value(l.Var())
}
