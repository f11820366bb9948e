package sat

// This file implements the solver's inprocessing layer: simplification
// that runs *during* search rather than once up front (contrast with
// preprocess.go). Four techniques, all switchable together via
// SetInprocess:
//
//   - Clause vivification (Piette/Hamadi/Saïs '08, Luo et al. IJCAI'17):
//     at restart boundaries, re-derive learnt clauses by assuming the
//     negation of their literals in turn; a propagation conflict or an
//     implied literal proves a shorter clause, which replaces the
//     original. Sound because the shrunk clause is both implied by the
//     formula (it was derived from it by unit propagation) and implies
//     the clause it replaces (it is a subset).
//
//   - On-the-fly backward subsumption: after each conflict, the freshly
//     learnt clause is checked against the learnt antecedents that took
//     part in the conflict analysis; any antecedent it subsumes is
//     deleted. Deleting a learnt clause is always sound — learnt
//     clauses are redundant by construction — and the subset test makes
//     it lossless: the surviving clause propagates at least as early.
//
//   - A three-tier learnt-clause database (Chanseok Oh's scheme, as in
//     COMiniSatPS): core clauses (LBD <= coreLBD) are kept forever,
//     mid-tier clauses (LBD <= midLBD) survive reductions only while
//     they keep participating in conflicts, and local clauses compete
//     on activity with half the tier dropped at every reduction.
//     Clauses are promoted when conflict analysis observes a better LBD.
//
//   - Chronological backtracking (Nadel & Ryvchin, SAT'18), in its
//     simple sound form: when the asserting level is far below the
//     conflict level, backtrack one level instead of jumping, and
//     assert the learnt literal there. The trail stays level-monotone
//     (no out-of-order assignments), so conflict analysis needs no
//     changes; what is saved is the re-propagation of the many levels a
//     long jump would discard.

import "sort"

// Tiers of the learnt-clause database. Ordering matters: promotion
// moves a clause to a numerically smaller tier.
const (
	tierCore int8 = iota
	tierMid
	tierLocal
)

// inprocessConfig collects the knobs of the inprocessing layer. The
// layer is on by default (New); SetInprocess(false) restores the
// pre-inprocessing solver behavior exactly (single-tier reduceDB,
// non-chronological backtracking, no in-search simplification).
type inprocessConfig struct {
	on      bool
	coreLBD int // clauses with LBD <= coreLBD are kept forever
	midLBD  int // clauses with LBD <= midLBD start in the mid tier
	// chrono is the backjump-distance threshold above which the solver
	// backtracks chronologically (one level) instead of jumping to the
	// asserting level. 0 disables chronological backtracking.
	chrono int
	// vivifyInterval is the number of conflicts between vivification
	// rounds; vivifyProps bounds the propagation work of one round.
	vivifyInterval int64
	vivifyProps    int64
	lastVivify     int64 // Conflicts counter at the last round
}

func defaultInprocess() inprocessConfig {
	return inprocessConfig{
		on:             true,
		coreLBD:        3,
		midLBD:         6,
		chrono:         100,
		vivifyInterval: 4000,
		vivifyProps:    200000,
	}
}

// SetInprocess toggles the inprocessing layer (vivification, on-the-fly
// subsumption, the tiered clause database, chronological backtracking).
// On is the default; off restores the legacy single-tier behavior.
// Call between Solve calls, not concurrently with one.
func (s *Solver) SetInprocess(on bool) { s.inpro.on = on }

// InprocessEnabled reports whether the inprocessing layer is on.
func (s *Solver) InprocessEnabled() bool { return s.inpro.on }

// tierFor maps an LBD to the tier a clause with that LBD belongs in.
func (s *Solver) tierFor(lbd int) int8 {
	switch {
	case lbd <= s.inpro.coreLBD:
		return tierCore
	case lbd <= s.inpro.midLBD:
		return tierMid
	default:
		return tierLocal
	}
}

// removeLearnt deletes an attached learnt clause. The clause stays in
// s.learnts with its deleted flag set (conflict analysis may hold
// pointers into the slice); reduceDB purges deleted entries.
func (s *Solver) removeLearnt(c *clause) {
	c.deleted = true
	s.detach(c)
	s.learntLits -= int64(len(c.lits))
}

// markLits stamps the literals of the just-learnt clause for the O(1)
// membership test of subsumeAntecedents.
func (s *Solver) markLits(lits []Lit) {
	if n := 2 * len(s.assigns); len(s.litStamp) < n {
		grown := make([]int64, n)
		copy(grown, s.litStamp)
		s.litStamp = grown
	}
	s.litGen++
	for _, l := range lits {
		s.litStamp[l] = s.litGen
	}
}

// subsumeAntecedents implements on-the-fly backward subsumption: the
// clause just learnt from a conflict is tested against the learnt
// antecedents of that conflict (collected by analyze), and every
// antecedent it subsumes — a strict superset of its literals — is
// deleted. Locked antecedents (reasons of current assignments) are
// skipped; their turn comes after backtracking unassigns them.
func (s *Solver) subsumeAntecedents(learnt []Lit) {
	if len(s.ante) == 0 {
		return
	}
	s.markLits(learnt)
	for _, c := range s.ante {
		if c.deleted || len(c.lits) <= len(learnt) || s.locked(c) {
			continue
		}
		hits := 0
		for _, l := range c.lits {
			if s.litStamp[l] == s.litGen {
				hits++
			}
		}
		if hits == len(learnt) {
			s.removeLearnt(c)
			s.stats.SubsumedLearnts++
		}
	}
}

// vivify runs one vivification round over the core and mid tiers of
// the learnt database. It must be called at the root decision level
// (restart boundaries); it returns false when vivification derives
// unsatisfiability of the formula.
func (s *Solver) vivify() bool {
	budget := s.stats.Propagations + s.inpro.vivifyProps
	// s.learnts is not appended to inside the loop (vivification learns
	// nothing, it only shrinks), so ranging over it directly is safe.
	for _, c := range s.learnts {
		if s.stats.Propagations > budget {
			break
		}
		if c.deleted || c.tier == tierLocal || len(c.lits) < 2 || s.locked(c) {
			continue
		}
		if !s.vivifyClause(c) {
			return false
		}
	}
	return true
}

// vivifyClause distills one learnt clause: assume the negation of each
// literal in turn on a scratch decision level; a literal already
// implied true ends the clause there, an implied-false literal is
// dropped, and a propagation conflict proves the assumed prefix
// contradictory, so the prefix alone is the clause. Returns false when
// the clause (or a unit it shrinks to) refutes the formula at the root.
func (s *Solver) vivifyClause(c *clause) bool {
	// Root-level simplification first: the trail is at level 0, so any
	// assigned literal is root-forced.
	lits := s.vivTmp[:0]
	for _, l := range c.lits {
		switch s.value(l) {
		case lTrue:
			// Satisfied at the root: the clause is garbage.
			s.removeLearnt(c)
			s.vivTmp = lits
			return true
		case lFalse:
			continue
		}
		lits = append(lits, l)
	}
	s.vivTmp = lits[:0]
	if len(lits) == 0 {
		s.ok = false
		return false
	}

	s.detach(c)
	s.trailLim = append(s.trailLim, len(s.trail)) // scratch decision level
	out := s.vivOut[:0]
	shrunk := len(lits) < len(c.lits)
probe:
	for i, l := range lits {
		switch s.value(l) {
		case lTrue:
			// ¬out implies l: the tail beyond l is redundant.
			out = append(out, l)
			if i+1 < len(lits) {
				shrunk = true
			}
			break probe
		case lFalse:
			// ¬out implies ¬l: l itself is redundant.
			shrunk = true
			continue
		}
		out = append(out, l)
		s.uncheckedEnqueue(l.Not(), nil)
		if s.propagate() != nil {
			// ¬out is contradictory: out alone is an implied clause.
			if i+1 < len(lits) {
				shrunk = true
			}
			break probe
		}
	}
	s.cancelUntil(0)
	s.vivOut = out[:0]

	if !shrunk {
		s.attach(c)
		return true
	}
	s.stats.VivifiedClauses++
	s.stats.VivifiedLits += int64(len(c.lits) - len(out))
	s.learntLits -= int64(len(c.lits) - len(out))
	if len(out) <= 1 {
		// The clause collapsed to (at most) a unit: the clause object is
		// dropped and the unit asserted at the root.
		c.deleted = true
		s.learntLits -= int64(len(out))
		if len(out) == 0 {
			s.ok = false
			return false
		}
		switch s.value(out[0]) {
		case lFalse:
			s.ok = false
			return false
		case lUndef:
			s.uncheckedEnqueue(out[0], nil)
			if s.propagate() != nil {
				s.ok = false
				return false
			}
		}
		return true
	}
	c.lits = append(c.lits[:0], out...)
	if c.lbd > len(c.lits) {
		c.lbd = len(c.lits)
	}
	if t := s.tierFor(c.lbd); t < c.tier {
		c.tier = t
	}
	s.attach(c)
	return true
}

// reduceDBTiered is the tier-aware clause-database reduction. Core
// clauses are untouchable; mid-tier clauses that took part in no
// conflict since the last reduction are demoted to local; the local
// tier is sorted by activity and its colder half dropped. Deleted
// entries (subsumption, vivification) are purged along the way.
func (s *Solver) reduceDBTiered() {
	keep := s.learnts[:0]
	local := s.reduceTmp[:0]
	for _, c := range s.learnts {
		if c.deleted {
			continue
		}
		switch c.tier {
		case tierCore:
			keep = append(keep, c)
		case tierMid:
			if c.used || s.locked(c) {
				c.used = false
				keep = append(keep, c)
			} else {
				c.tier = tierLocal
				local = append(local, c)
			}
		default:
			local = append(local, c)
		}
	}
	// Hot (recently used or high-activity) local clauses survive;
	// stable sort keeps the order deterministic under ties.
	sortClausesByActivity(local)
	limit := len(local) / 2
	for i, c := range local {
		if i < limit || c.used || s.locked(c) {
			c.used = false
			keep = append(keep, c)
		} else {
			c.deleted = true
			s.detach(c)
		}
	}
	s.reduceTmp = local[:0] // retain scratch capacity for the next round
	s.learnts = keep
	s.recountLearntLits()
}

// sortClausesByActivity orders hottest-first: higher activity, then
// lower LBD, then shorter. The stable sort keeps full ties in insertion
// order, so reductions are deterministic.
func sortClausesByActivity(cls []*clause) {
	sort.SliceStable(cls, func(i, j int) bool {
		a, b := cls[i], cls[j]
		if a.activity != b.activity {
			return a.activity > b.activity
		}
		if a.lbd != b.lbd {
			return a.lbd < b.lbd
		}
		return len(a.lits) < len(b.lits)
	})
}
