package sat

// This file implements the solver's inprocessing layer: simplification
// that runs *during* search rather than once up front (contrast with
// preprocess.go). Three techniques, all switchable together via
// SetInprocess:
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
}

func defaultInprocess() inprocessConfig {
	return inprocessConfig{
		on:      true,
		coreLBD: 3,
		midLBD:  6,
		chrono:  100,
	}
}

// SetInprocess toggles the inprocessing layer (on-the-fly subsumption, the tiered clause database, chronological backtracking).
// On is the default; off restores the legacy single-tier behavior.
// Call between Solve calls, not concurrently with one.
func (s *Solver) SetInprocess(on bool) { s.inpro.on = on }

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
// references into the slice); reduceDB purges deleted entries.
func (s *Solver) removeLearnt(c cref) {
	s.detach(c)
	s.learntLits -= int64(s.ca.size(c))
	s.ca.free(c)
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
		if s.ca.deleted(c) || s.ca.size(c) <= len(learnt) || s.locked(c) {
			continue
		}
		hits := 0
		for _, l := range s.ca.lits(c) {
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

// reduceDBTiered is the tier-aware clause-database reduction. Core
// clauses are untouchable; mid-tier clauses that took part in no
// conflict since the last reduction are demoted to local; the local
// tier is sorted by activity and its colder half dropped. Deleted
// entries (subsumption) are purged along the way.
func (s *Solver) reduceDBTiered() {
	ca := &s.ca
	keep := s.learnts[:0]
	local := s.reduceTmp[:0]
	for _, c := range s.learnts {
		if ca.deleted(c) {
			continue
		}
		switch ca.tier(c) {
		case tierCore:
			keep = append(keep, c)
		case tierMid:
			if ca.used(c) || s.locked(c) {
				ca.setUsed(c, false)
				keep = append(keep, c)
			} else {
				ca.setTier(c, tierLocal)
				local = append(local, c)
			}
		default:
			local = append(local, c)
		}
	}
	// Hot (recently used or high-activity) local clauses survive;
	// stable sort keeps the order deterministic under ties.
	s.sortClausesByActivity(local)
	limit := len(local) / 2
	for i, c := range local {
		if i < limit || ca.used(c) || s.locked(c) {
			ca.setUsed(c, false)
			keep = append(keep, c)
		} else {
			s.detach(c)
			ca.free(c)
		}
	}
	s.reduceTmp = local[:0] // retain scratch capacity for the next round
	s.learnts = keep
	s.recountLearntLits()
}

// sortClausesByActivity orders hottest-first: higher activity, then
// lower LBD, then shorter. The stable sort keeps full ties in insertion
// order, so reductions are deterministic.
func (s *Solver) sortClausesByActivity(cls []cref) {
	ca := &s.ca
	sort.SliceStable(cls, func(i, j int) bool {
		a, b := cls[i], cls[j]
		if aa, ab := ca.activity(a), ca.activity(b); aa != ab {
			return aa > ab
		}
		if la, lb := ca.lbd(a), ca.lbd(b); la != lb {
			return la < lb
		}
		return ca.size(a) < ca.size(b)
	})
}
