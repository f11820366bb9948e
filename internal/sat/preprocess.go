package sat

// This file implements SatELite-style CNF preprocessing (Eén &
// Biere, "Effective Preprocessing in SAT through Variable and Clause
// Elimination", SAT 2005): backward subsumption, self-subsuming
// resolution, and bounded variable elimination over the root-level
// clause database.
//
// Preprocess is designed to run once, after the formula is loaded and
// before the first Solve, and to stay compatible with CheckFence's
// incremental use of the solver afterwards. The contract is:
//
//   - Callers Freeze every variable that later clauses, assumptions,
//     or model reads may mention (error literal, observation bits,
//     memory-order variables). Frozen variables are never eliminated.
//   - Clauses added after Preprocess (the mining loop's blocking
//     clauses, the inclusion check's exclusion clauses) may therefore
//     only mention live variables; AddClause panics otherwise, which
//     turns a contract violation into a loud failure instead of a
//     silent unsoundness.
//   - Model values of eliminated variables are reconstructed by
//     extendModel after every Sat result (replaying the elimination
//     stack in reverse), so Value works uniformly.

import (
	"cmp"
	"slices"
	"time"
)

// Elimination bounds: a variable is only eliminated when each
// polarity occurs in at most bveOccLimit clauses, every resolvent has
// at most bveLenLimit literals, and the number of non-tautological
// resolvents does not exceed the number of clauses removed (the
// SatELite "no growth" rule).
const (
	bveOccLimit = 12
	bveLenLimit = 16
	bveRounds   = 3
)

// Preprocess simplifies the root-level clause database in place.
// It returns false when simplification derives unsatisfiability
// (subsequent Solve calls return Unsat). Learned clauses are dropped:
// preprocessing is meant to run before search.
func (s *Solver) Preprocess() bool {
	if !s.ok {
		return false
	}
	start := time.Now()
	defer func() { s.preStats.preprocessTime += time.Since(start) }()
	s.cancelUntil(0)
	if s.propagate() != nil {
		s.ok = false
		return false
	}

	s.preStats.preVars = len(s.assigns)
	s.preStats.preClauses = len(s.clauses)

	for _, c := range s.learnts {
		s.detach(c)
	}
	s.learnts = s.learnts[:0]

	p := newPrep(s)
	if !p.conflict && p.applyUnits() && p.subsumePass() {
		// Round 0 tries every variable; later rounds only revisit
		// variables whose occurrence lists shrank (clause killed or
		// strengthened), where new elimination chances can appear.
		vars := make([]int, 0, len(s.assigns))
		for v := range s.assigns {
			vars = append(vars, v)
		}
		for round := 0; round < bveRounds; round++ {
			changed := p.bvePass(vars)
			if !p.applyUnits() || !p.subsumePass() {
				break
			}
			vars = p.takeTouched()
			if !changed || len(vars) == 0 {
				break
			}
		}
	}
	if p.conflict {
		s.ok = false
		return false
	}
	p.rebuild()
	return true
}

// prep is the preprocessing working set: clause literal slices
// (sorted; nil = removed), variable-set signatures for the subsumption
// filter, and per-literal occurrence lists (lazily filtered, so they
// may contain stale entries).
type prep struct {
	s        *Solver
	cls      [][]Lit
	sig      []uint64
	occ      [][]int32
	units    []Lit
	conflict bool

	// dirty queues clause indices pending (re-)subsumption: every new
	// clause plus every strengthened one.
	dirty []int
	// touchMark/touchList collect variables whose occurrence lists
	// shrank, i.e. fresh bounded-variable-elimination candidates.
	touchMark []bool
	touchList []int
	// stale[l] is set when strengthen removed l from some clause,
	// leaving a stale entry in occ[l]; liveOcc only pays for the
	// per-entry membership re-check on such lists.
	stale []bool

	// res and resEnd hold the resolvents of the elimination candidate
	// under test, flat (resolvent k ends at resEnd[k]); they are copied
	// out only when the elimination commits. arena is the chunked store
	// for committed resolvents and the clauses saved on elimStack, and
	// savedArena for the elimStack entries' clause lists.
	res        []Lit
	resEnd     []int
	arena      []Lit
	savedArena [][]Lit
}

func newPrep(s *Solver) *prep {
	p := &prep{
		s:         s,
		cls:       make([][]Lit, 0, 2*len(s.clauses)),
		sig:       make([]uint64, 0, 2*len(s.clauses)),
		dirty:     make([]int, 0, len(s.clauses)),
		occ:       make([][]int32, 2*len(s.assigns)),
		touchMark: make([]bool, len(s.assigns)),
		stale:     make([]bool, 2*len(s.assigns)),
	}
	// One arena for every clause's literals and one for the
	// occurrence lists: on large formulas the per-clause and per-list
	// allocations dominate otherwise.
	total := 0
	counts := make([]int, 2*len(s.assigns))
	for _, c := range s.clauses {
		satisfied := false
		for _, l := range c.lits {
			if s.value(l) == lTrue {
				satisfied = true
				break
			}
		}
		if satisfied {
			continue
		}
		for _, l := range c.lits {
			if s.value(l) == lUndef {
				total++
				counts[l]++
			}
		}
	}
	// Each list gets a little headroom, so the first resolvents
	// appended to it do not reallocate it.
	occArena := make([]int32, total+occHeadroom*len(counts))
	off := 0
	for l, n := range counts {
		end := off + n + occHeadroom
		p.occ[l] = occArena[off:off:end]
		off = end
	}
	arena := make([]Lit, 0, total)
	for _, c := range s.clauses {
		satisfied := false
		for _, l := range c.lits {
			if s.value(l) == lTrue {
				satisfied = true
				break
			}
		}
		if satisfied {
			continue
		}
		start := len(arena)
		for _, l := range c.lits {
			if s.value(l) == lUndef {
				arena = append(arena, l)
			}
		}
		p.addClause(arena[start:len(arena):len(arena)])
	}
	return p
}

// occHeadroom is the spare capacity of every occurrence list.
const occHeadroom = 2

// Chunk bounds of the prep arenas (see carve).
const (
	minPrepChunk = 256
	maxPrepChunk = 1 << 15
)

// alloc returns n literals from the prep arena. They outlive the prep:
// committed resolvents become problem clauses and saved clauses stay on
// elimStack.
func (p *prep) alloc(n int) []Lit {
	return carve(&p.arena, n, minPrepChunk, maxPrepChunk)
}

func sortLits(lits []Lit) {
	// Insertion sort: clauses are short and often nearly sorted
	// (AddClause sorts, watch swaps only disturb the first two slots).
	for i := 1; i < len(lits); i++ {
		l := lits[i]
		j := i - 1
		for j >= 0 && lits[j] > l {
			lits[j+1] = lits[j]
			j--
		}
		lits[j+1] = l
	}
}

func signature(lits []Lit) uint64 {
	var sig uint64
	for _, l := range lits {
		sig |= 1 << uint(l.Var()&63)
	}
	return sig
}

// addClause inserts a simplified clause into the working set,
// routing empty clauses to the conflict flag and units to the pending
// queue.
func (p *prep) addClause(lits []Lit) {
	switch len(lits) {
	case 0:
		p.conflict = true
		return
	case 1:
		p.units = append(p.units, lits[0])
		return
	}
	sortLits(lits)
	i := len(p.cls)
	if i == cap(p.cls) {
		p.cls, p.sig = growCap(p.cls, 2*i), growCap(p.sig, 2*i)
	}
	p.cls = append(p.cls, lits)
	p.sig = append(p.sig, signature(lits))
	for _, l := range lits {
		p.occ[l] = append(p.occ[l], int32(i))
	}
	p.dirty = append(p.dirty, i)
}

// kill removes clause i and records its variables as elimination
// candidates (their occurrence counts just dropped).
func (p *prep) kill(i int) {
	for _, l := range p.cls[i] {
		p.touch(l.Var())
	}
	p.cls[i] = nil
}

func (p *prep) touch(v int) {
	if !p.touchMark[v] {
		p.touchMark[v] = true
		p.touchList = append(p.touchList, v)
	}
}

func (p *prep) takeTouched() []int {
	out := p.touchList
	p.touchList = nil
	for _, v := range out {
		p.touchMark[v] = false
	}
	return out
}

func containsLit(lits []Lit, l Lit) bool {
	for _, x := range lits {
		if x == l {
			return true
		}
	}
	return false
}

// liveOcc filters occ[l] down to clauses that are alive and still
// contain l, compacting the list in place. The membership re-check is
// only needed after a strengthen left stale entries for l.
func (p *prep) liveOcc(l Lit) []int32 {
	occ := p.occ[l]
	out := occ[:0]
	if p.stale[l] {
		for _, i := range occ {
			if p.cls[i] != nil && containsLit(p.cls[i], l) {
				out = append(out, i)
			}
		}
		p.stale[l] = false
	} else {
		for _, i := range occ {
			if p.cls[i] != nil {
				out = append(out, i)
			}
		}
	}
	p.occ[l] = out
	return out
}

// applyUnits drains the pending unit queue: enqueue each unit on the
// solver trail at the root level and simplify the working set against
// it (satisfied clauses die, falsified literals are removed). Returns
// false on conflict.
func (p *prep) applyUnits() bool {
	s := p.s
	for len(p.units) > 0 {
		u := p.units[len(p.units)-1]
		p.units = p.units[:len(p.units)-1]
		switch s.value(u) {
		case lTrue:
			continue
		case lFalse:
			p.conflict = true
			return false
		}
		s.uncheckedEnqueue(u, nil)
		for _, i := range p.liveOcc(u) {
			p.kill(int(i))
		}
		for _, i := range p.liveOcc(u.Not()) {
			p.strengthen(int(i), u.Not())
			if p.conflict {
				return false
			}
		}
	}
	return true
}

// strengthen removes literal l from clause i (self-subsuming
// resolution or unit simplification), demoting it to the unit queue
// or conflict flag when it shrinks below two literals.
func (p *prep) strengthen(i int, l Lit) {
	lits := p.cls[i]
	out := lits[:0]
	for _, x := range lits {
		if x != l {
			out = append(out, x)
		}
	}
	p.touch(l.Var())
	p.stale[l] = true
	switch len(out) {
	case 0:
		p.conflict = true
	case 1:
		p.units = append(p.units, out[0])
		p.touch(out[0].Var())
		p.cls[i] = nil
	default:
		p.cls[i] = out
		p.sig[i] = signature(out)
		p.dirty = append(p.dirty, i)
	}
}

// subsumeCheck tests whether clause c subsumes d modulo at most one
// flipped literal. It returns (-1, true) for plain subsumption
// (c ⊆ d), (l, true) when exactly one literal of c occurs flipped in
// d as l — resolving c and d on it yields d \ {l}, so d may be
// strengthened by removing l — and (0, false) otherwise. Both clauses
// must be sorted.
func subsumeCheck(c, d []Lit) (Lit, bool) {
	var flipped Lit = -1
	j := 0
	for _, l := range c {
		v := l.Var()
		for j < len(d) && d[j].Var() < v {
			j++
		}
		if j == len(d) || d[j].Var() != v {
			return 0, false
		}
		if d[j] != l {
			if flipped >= 0 {
				return 0, false
			}
			flipped = d[j]
		}
		j++
	}
	return flipped, true
}

// subsumePass performs backward subsumption and self-subsuming
// resolution over the dirty queue (new and strengthened clauses) to a
// fixpoint. Returns false on conflict.
func (p *prep) subsumePass() bool {
	for len(p.dirty) > 0 {
		i := p.dirty[len(p.dirty)-1]
		p.dirty = p.dirty[:len(p.dirty)-1]
		c := p.cls[i]
		if c == nil {
			continue
		}
		// Candidates must contain some literal of c (possibly flipped
		// on one position), so every candidate appears in occ[l] or
		// occ[l.Not()] for any single l in c (a flip elsewhere leaves
		// l itself in the candidate). Pick the l minimizing the
		// combined scan.
		best := c[0]
		bestCost := len(p.occ[best]) + len(p.occ[best.Not()])
		for _, l := range c[1:] {
			if cost := len(p.occ[l]) + len(p.occ[l.Not()]); cost < bestCost {
				best, bestCost = l, cost
			}
		}
		for pass := 0; pass < 2; pass++ {
			lit := best
			if pass == 1 {
				lit = best.Not()
			}
			for _, j32 := range p.liveOcc(lit) {
				j := int(j32)
				d := p.cls[j]
				if j == i || d == nil || len(d) < len(c) || p.sig[i]&^p.sig[j] != 0 {
					continue
				}
				rem, ok := subsumeCheck(c, d)
				if !ok {
					continue
				}
				if rem < 0 {
					p.kill(j)
					p.s.preStats.clausesSubsumed++
					continue
				}
				// strengthen re-queues j itself (it may subsume others
				// now) and records the removed variable as touched.
				p.strengthen(j, rem)
				p.s.preStats.clausesStrengthened++
				if p.conflict {
					return false
				}
			}
		}
		if len(p.units) > 0 && !p.applyUnits() {
			return false
		}
	}
	return true
}

// resolve appends the resolvent of a and b on variable v to out,
// reporting whether it is a tautology (out then comes back at its
// original length). Both inputs are sorted and the appended resolvent
// is sorted.
func resolve(out, a, b []Lit, v int) ([]Lit, bool) {
	start := len(out)
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var l Lit
		switch {
		case i == len(a):
			l = b[j]
			j++
		case j == len(b):
			l = a[i]
			i++
		case a[i] <= b[j]:
			l = a[i]
			if a[i] == b[j] {
				j++
			}
			i++
		default:
			l = b[j]
			j++
		}
		if l.Var() == v {
			continue
		}
		if n := len(out); n > start && out[n-1] == l.Not() {
			return out[:start], true
		}
		if n := len(out); n > start && out[n-1] == l {
			continue
		}
		out = append(out, l)
	}
	return out, false
}

// bvePass attempts bounded variable elimination on the given
// candidate variables, cheapest (fewest occurrences) first. Returns
// whether any variable was eliminated.
func (p *prep) bvePass(vars []int) bool {
	s := p.s
	type cand struct{ v, n int }
	cands := make([]cand, 0, len(vars))
	for _, v := range vars {
		if s.frozen[v] || s.eliminated[v] || s.assigns[v] != lUndef {
			continue
		}
		// Raw occurrence-list lengths over-approximate the live counts;
		// they only order the pass, and the hard limits are re-checked
		// against compacted lists below.
		n := len(p.occ[Pos(v)]) + len(p.occ[Neg(v)])
		if n > 4*bveOccLimit {
			continue
		}
		cands = append(cands, cand{v, n})
	}
	// Cheapest-first with the variable index as tie-breaker keeps the
	// pass deterministic.
	slices.SortFunc(cands, func(a, b cand) int {
		return cmp.Or(cmp.Compare(a.n, b.n), cmp.Compare(a.v, b.v))
	})

	changed := false
	for _, c := range cands {
		v := c.v
		if s.assigns[v] != lUndef {
			continue // assigned by a unit derived since the scan
		}
		pos := p.liveOcc(Pos(v))
		neg := p.liveOcc(Neg(v))
		if len(pos) > bveOccLimit || len(neg) > bveOccLimit {
			continue
		}
		limit := len(pos) + len(neg)
		p.res, p.resEnd = p.res[:0], p.resEnd[:0]
		ok := true
		for _, i := range pos {
			for _, j := range neg {
				start := len(p.res)
				var taut bool
				p.res, taut = resolve(p.res, p.cls[i], p.cls[j], v)
				if taut {
					continue
				}
				if len(p.res)-start > bveLenLimit || len(p.resEnd) == limit {
					ok = false
					break
				}
				p.resEnd = append(p.resEnd, len(p.res))
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}

		entry := elimEntry{v: v, clauses: carve(&p.savedArena, limit, minPrepChunk, maxPrepChunk)[:0]}
		for _, list := range [2][]int32{pos, neg} {
			for _, i := range list {
				saved := p.alloc(len(p.cls[i]))
				copy(saved, p.cls[i])
				entry.clauses = append(entry.clauses, saved)
				p.kill(int(i))
			}
		}
		if len(s.elimStack) == cap(s.elimStack) {
			s.elimStack = growCap(s.elimStack, max(2*len(s.elimStack), minPrepChunk))
		}
		s.elimStack = append(s.elimStack, entry)
		s.eliminated[v] = true
		s.preStats.varsEliminated++
		start := 0
		for _, end := range p.resEnd {
			r := p.alloc(end - start)
			copy(r, p.res[start:end])
			p.addClause(r)
			start = end
		}
		if len(p.units) > 0 && !p.applyUnits() {
			return changed
		}
		changed = true
	}
	return changed
}

// rebuild replaces the solver's clause database and watcher lists
// with the surviving working set. Clause structs come from one
// allocation and watch lists from another (attachAll); the solver's
// problem-clause arenas are dropped, since no clause references them
// any more.
func (p *prep) rebuild() {
	s := p.s
	n := 0
	for _, lits := range p.cls {
		if lits != nil {
			n++
		}
	}
	structs := make([]clause, 0, n)
	clauses := make([]*clause, 0, n)
	for _, lits := range p.cls {
		if lits == nil {
			continue
		}
		structs = append(structs, clause{lits: lits})
		clauses = append(clauses, &structs[len(structs)-1])
	}
	s.attachAll(clauses)
	s.clauses = clauses
	s.clauseArena, s.litArena = nil, nil
	s.stats.Clauses = len(clauses)
	// Units derived during preprocessing were applied to the working
	// set structurally, so their propagation over the new database is
	// already reflected; skip re-propagating them.
	s.qhead = len(s.trail)
}

// extendModel reconstructs model values for eliminated variables by
// replaying the elimination stack in reverse: each variable defaults
// to false and is flipped to true exactly when one of its saved
// clauses with a positive occurrence is otherwise unsatisfied. The
// saved clauses of a variable only mention variables eliminated later
// (already reconstructed) or never (assigned by search), so the walk
// is well-founded.
func (s *Solver) extendModel() {
	for i := len(s.elimStack) - 1; i >= 0; i-- {
		e := s.elimStack[i]
		s.extVals[e.v] = lFalse
		pl := Pos(e.v)
		for _, cl := range e.clauses {
			if !containsLit(cl, pl) {
				continue // satisfied by v = false
			}
			satisfied := false
			for _, l := range cl {
				if l.Var() != e.v && s.ValueLit(l) {
					satisfied = true
					break
				}
			}
			if !satisfied {
				s.extVals[e.v] = lTrue
				break
			}
		}
	}
}
