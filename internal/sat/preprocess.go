package sat

// This file implements SatELite-style CNF preprocessing (Eén &
// Biere, "Effective Preprocessing in SAT through Variable and Clause
// Elimination", SAT 2005), reduced to its variable half: root-unit
// simplification and bounded variable elimination over the root-level
// clause database. Backward subsumption and self-subsuming resolution
// are not run: on CheckFence's inclusion formulas elimination does the
// reduction that matters (DESIGN.md, "Formula minimization").
//
// The pass runs once per formula: either at once (Preprocess), or,
// once armed (ArmPreprocess), inside Solve when the formula's search
// has resolved preprocessConflicts conflicts, so a formula that is
// decided sooner never pays for it. Either way it stays compatible
// with CheckFence's incremental use of the solver afterwards. The
// contract is:
//
//   - Callers Freeze every variable that later clauses, assumptions,
//     or model reads may mention (error literal, observation bits,
//     memory-order variables). Frozen variables are never eliminated.
//     While the solver is armed, every new variable and every
//     assumption of a Solve is frozen as well.
//   - Clauses added after the pass (the mining loop's blocking
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

// preprocessConflicts is the search effort after which an armed
// solver runs the pass: the conflicts the formula has resolved since
// ArmPreprocess, counted over all its solves. Most inclusion formulas
// are decided in fewer, and for them the pass would cost more than the
// whole search (DESIGN.md, "Formula minimization").
const preprocessConflicts = 100

// ArmPreprocess schedules Preprocess instead of running it: Solve runs
// the pass at the root once the formula has resolved
// preprocessConflicts conflicts since arming. Variables created from
// now on, and the assumptions of every Solve until the pass, are
// frozen, since later clauses and solves may mention them. Learnt
// clauses are dropped at the pass: elimination keeps every clause
// implied over the surviving variables, so the search stays sound.
func (s *Solver) ArmPreprocess() { s.arm(preprocessConflicts) }

// arm is ArmPreprocess with the threshold k as a parameter.
func (s *Solver) arm(k int64) {
	s.armed, s.armK, s.armedAt = true, k, s.stats.Conflicts
}

// passDue reports whether an armed solver has resolved enough
// conflicts to run its pass. Solve asks at entry and after every
// conflict it resolves.
func (s *Solver) passDue() bool {
	return s.armed && s.stats.Conflicts-s.armedAt >= s.armK
}

// Preprocess simplifies the root-level clause database in place.
// It returns false when simplification derives unsatisfiability
// (subsequent Solve calls return Unsat). Learned clauses are dropped,
// and the solver is no longer armed (ArmPreprocess). An installed order
// theory (SetOrder) constrains frozen variables only, so every
// simplification stays sound with it; root units derived here reach
// it at the next propagation.
func (s *Solver) Preprocess() bool {
	if !s.ok {
		return false
	}
	start := time.Now()
	defer func() { s.preStats.preprocessTime += time.Since(start) }()
	s.armed = false
	s.preStats.ran, s.preStats.conflicts = true, s.stats.Conflicts
	s.cancelUntil(0)
	s.attachPending()
	if s.propagate() != crefUndef {
		s.ok = false
		return false
	}

	s.preStats.preVars = len(s.assigns)
	s.preStats.preClauses = len(s.clauses)

	p := newPrep(s)
	s.dropDatabase()
	if !p.conflict && p.applyUnits() {
		// Round 0 tries every variable; later rounds only revisit
		// variables whose occurrence lists shrank (clause killed or
		// strengthened by a unit), where new elimination chances can
		// appear.
		vars := make([]int, 0, len(s.assigns))
		for v := range s.assigns {
			vars = append(vars, v)
		}
		for round := 0; round < bveRounds && !p.conflict; round++ {
			if !p.bvePass(vars) {
				break
			}
			if vars = p.takeTouched(); len(vars) == 0 {
				break
			}
		}
	}
	p.saveElim()
	if p.conflict {
		s.ok = false
		return false
	}
	p.rebuild()
	return true
}

// dropDatabase lets go of the clause region and the binary pairs once
// the working set holds every clause: the problem and learnt lists and
// the watch lists, all of which name them, go with them, and so does
// every reason (only root-level assignments remain, and none of them
// needs one). The garbage collector may then reclaim the old database
// while elimination runs, and a Preprocess that derives a conflict
// leaves an empty, consistent database behind.
func (s *Solver) dropDatabase() {
	s.ca, s.bins = region{}, nil
	s.clauses, s.learnts = nil, nil
	clear(s.watches)
	for v := range s.reasons {
		s.reasons[v] = crefUndef
	}
}

// prep is the preprocessing working set. It holds no pointers: every
// clause is a span of one flat literal buffer (sorted; a set bit in
// dead marks it removed), and the per-literal occurrence lists are
// spans of one flat int32 region (lazily filtered, so they may contain
// stale entries).
type prep struct {
	s        *Solver
	lits     []Lit
	cls      []span
	dead     []uint64
	occs     []int32
	occ      []occSpan
	units    []Lit
	conflict bool

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
	// into lits only when the elimination commits.
	res    []Lit
	resEnd []int

	// elim lists the variables eliminated so far, each with its killed
	// clauses as elimCls[off:end]. A dead clause is never modified, so
	// saveElim copies the clauses onto the solver's elimination stack
	// once, at the end.
	elim    []elimEntry
	elimCls []int32
}

// span locates a clause in prep.lits.
type span struct{ off, n uint32 }

// occSpan locates an occurrence list in prep.occs: n entries in a
// slot of capacity cap.
type occSpan struct{ off, n, cap uint32 }

func newPrep(s *Solver) *prep {
	nc, nv := len(s.clauses), len(s.assigns)
	p := &prep{
		s:         s,
		cls:       make([]span, 0, 2*nc),
		dead:      make([]uint64, 0, (2*nc+63)/64),
		occ:       make([]occSpan, 2*nv),
		touchMark: make([]bool, nv),
		stale:     make([]bool, 2*nv),
	}
	// Size the literal buffer and the occurrence region in a counting
	// pass, so neither grows while the clauses are loaded.
	total := 0
	for _, c := range s.clauses {
		lits := s.clauseLits(c)
		if s.satisfied(lits) {
			continue
		}
		for _, l := range lits {
			if s.value(l) == lUndef {
				total++
				p.occ[l].cap++
			}
		}
	}
	// Each list gets a little headroom, so the first resolvents
	// appended to it do not move it; the spare room at the end of both
	// buffers takes the lists and resolvents that do.
	spare := total/2 + minRegion
	p.occs = make([]int32, 0, total+occHeadroom*len(p.occ)+spare)
	for l := range p.occ {
		o := &p.occ[l]
		o.off = uint32(len(p.occs))
		o.cap += occHeadroom
		p.occs = p.occs[:len(p.occs)+int(o.cap)]
	}
	p.lits = make([]Lit, 0, total+spare)
	for _, c := range s.clauses {
		lits := s.clauseLits(c)
		if s.satisfied(lits) {
			continue
		}
		start := len(p.lits)
		for _, l := range lits {
			if s.value(l) == lUndef {
				p.lits = append(p.lits, l)
			}
		}
		p.addClause(start)
	}
	return p
}

// satisfied reports whether some literal of lits is true.
func (s *Solver) satisfied(lits []Lit) bool {
	for _, l := range lits {
		if s.value(l) == lTrue {
			return true
		}
	}
	return false
}

// occHeadroom is the spare capacity of every occurrence list.
const occHeadroom = 2

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

// clause returns the literals of clause i.
func (p *prep) clause(i int) []Lit {
	c := p.cls[i]
	end := c.off + c.n
	return p.lits[c.off:end:end]
}

func (p *prep) alive(i int) bool { return p.dead[i>>6]&(1<<(i&63)) == 0 }

// occList returns occ[l] as a slice of the occurrence region.
func (p *prep) occList(l Lit) []int32 {
	o := p.occ[l]
	end := o.off + o.n
	return p.occs[o.off:end:end]
}

// addOcc appends clause i to occ[l]. A full list moves to the end of
// the region with twice the capacity, leaving its old slot unused;
// when the region has no room left, compactOcc reclaims those slots.
func (p *prep) addOcc(l Lit, i int32) {
	o := &p.occ[l]
	if o.n == o.cap {
		off, newCap := len(p.occs), 2*o.cap
		if off+int(newCap) > cap(p.occs) {
			p.compactOcc()
		} else {
			p.occs = p.occs[:off+int(newCap)]
			copy(p.occs[off:], p.occs[o.off:o.off+o.n])
			o.off, o.cap = uint32(off), newCap
		}
	}
	p.occs[o.off+o.n] = i
	o.n++
}

// compactOcc lays the occurrence lists out afresh, back to back in
// literal order, each with occHeadroom free slots, in a region with as
// much room again for lists that move later. Every list keeps its
// entries and their order.
func (p *prep) compactOcc() {
	used := 0
	for _, o := range p.occ {
		used += int(o.n) + occHeadroom
	}
	occs := make([]int32, 0, 2*used)
	for l := range p.occ {
		o := &p.occ[l]
		off := len(occs)
		occs = append(occs, p.occs[o.off:o.off+o.n]...)
		occs = occs[:off+int(o.n)+occHeadroom]
		o.off, o.cap = uint32(off), o.n+occHeadroom
	}
	p.occs = occs
}

// addClause inserts the clause lits[start:] into the working set,
// routing empty clauses to the conflict flag and units to the pending
// queue (neither keeps its literals in the buffer).
func (p *prep) addClause(start int) {
	lits := p.lits[start:]
	switch len(lits) {
	case 0:
		p.conflict = true
		return
	case 1:
		p.units = append(p.units, lits[0])
		p.lits = p.lits[:start]
		return
	}
	sortLits(lits)
	i := len(p.cls)
	if i == cap(p.cls) {
		p.cls = growCap(p.cls, 2*i)
	}
	if i>>6 == len(p.dead) {
		p.dead = append(p.dead, 0)
	}
	p.cls = append(p.cls, span{uint32(start), uint32(len(lits))})
	for _, l := range lits {
		p.addOcc(l, int32(i))
	}
}

// kill removes clause i and records its variables as elimination
// candidates (their occurrence counts just dropped).
func (p *prep) kill(i int) {
	for _, l := range p.clause(i) {
		p.touch(l.Var())
	}
	p.dead[i>>6] |= 1 << (i & 63)
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
	occ := p.occList(l)
	out := occ[:0]
	if p.stale[l] {
		for _, i := range occ {
			if p.alive(int(i)) && containsLit(p.clause(int(i)), l) {
				out = append(out, i)
			}
		}
		p.stale[l] = false
	} else {
		// The hot loop: one bit of the dead set per entry.
		dead := p.dead
		for _, i := range occ {
			if dead[i>>6]&(1<<(i&63)) == 0 {
				out = append(out, i)
			}
		}
	}
	p.occ[l].n = uint32(len(out))
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
		s.uncheckedEnqueue(u, crefUndef)
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

// strengthen removes the falsified literal l from clause i, demoting
// the clause to the unit queue or conflict flag when it shrinks below
// two literals.
func (p *prep) strengthen(i int, l Lit) {
	lits := p.clause(i)
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
		p.dead[i>>6] |= 1 << (i & 63)
	default:
		p.cls[i].n = uint32(len(out))
	}
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
		n := int(p.occ[Pos(v)].n + p.occ[Neg(v)].n)
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
				p.res, taut = resolve(p.res, p.clause(int(i)), p.clause(int(j)), v)
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

		off := len(p.elimCls)
		for _, list := range [2][]int32{pos, neg} {
			for _, i := range list {
				p.elimCls = append(p.elimCls, i)
				p.kill(int(i))
			}
		}
		p.elim = append(p.elim, elimEntry{v: int32(v), off: uint32(off), end: uint32(len(p.elimCls))})
		s.eliminated[v] = true
		s.preStats.varsEliminated++
		// Double the literal buffer rather than let append grow it by
		// 1.25x: elimination can add more resolvent literals than the
		// formula had.
		if need := len(p.lits) + len(p.res); need > cap(p.lits) {
			p.lits = growCap(p.lits, max(2*cap(p.lits), need))
		}
		start := 0
		for _, end := range p.resEnd {
			at := len(p.lits)
			p.lits = append(p.lits, p.res[start:end]...)
			p.addClause(at)
			start = end
		}
		if len(p.units) > 0 && !p.applyUnits() {
			return changed
		}
		changed = true
	}
	return changed
}

// saveElim appends the eliminated variables to the solver's
// elimination stack, in elimination order, each clause stored as its
// length followed by its literals.
func (p *prep) saveElim() {
	s := p.s
	words := len(s.elimLits)
	for _, i := range p.elimCls {
		words += 1 + int(p.cls[i].n)
	}
	s.elimLits = growCap(s.elimLits, words)
	s.elimStack = growCap(s.elimStack, len(s.elimStack)+len(p.elim))
	for _, e := range p.elim {
		off := len(s.elimLits)
		for _, i := range p.elimCls[e.off:e.end] {
			lits := p.clause(int(i))
			s.elimLits = append(s.elimLits, Lit(len(lits)))
			s.elimLits = append(s.elimLits, lits...)
		}
		s.elimStack = append(s.elimStack, elimEntry{v: e.v, off: uint32(off), end: uint32(len(s.elimLits))})
	}
}

// rebuild fills the empty clause region, binary pairs and clause list
// (see dropDatabase) with the surviving working set, in working-set
// order, and leaves the watch lists empty: the solver is back in bulk
// mode (see BulkLoad), so the next Solve attaches the survivors and
// any clause added meanwhile in one pass.
func (p *prep) rebuild() {
	s := p.s
	n, bins, words := 0, 0, 0
	for i, c := range p.cls {
		switch {
		case !p.alive(i):
		case c.n == 2:
			n++
			bins++
		default:
			n++
			words += hdrWords + int(c.n)
		}
	}
	s.ca = newRegion(words)
	s.bins = make([]Lit, 0, 2*bins)
	clauses := make([]cref, 0, n)
	for i := range p.cls {
		if !p.alive(i) {
			continue
		}
		if lits := p.clause(i); len(lits) == 2 {
			clauses = append(clauses, s.addBin(lits[0], lits[1]))
		} else {
			clauses = append(clauses, s.ca.alloc(lits, false))
		}
	}
	s.bulk = true
	s.clauses = clauses
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
		v := int(e.v)
		s.extVals[v] = lFalse
		pl := Pos(v)
		for saved := s.elimLits[e.off:e.end]; len(saved) > 0; {
			n := int(saved[0])
			cl := saved[1 : 1+n]
			saved = saved[1+n:]
			if !containsLit(cl, pl) {
				continue // satisfied by v = false
			}
			satisfied := false
			for _, l := range cl {
				if l.Var() != v && s.ValueLit(l) {
					satisfied = true
					break
				}
			}
			if !satisfied {
				s.extVals[v] = lTrue
				break
			}
		}
	}
}
