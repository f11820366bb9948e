package sat

// This file holds the learnt-clause database and the search knobs that
// shape it:
//
//   - A three-tier learnt-clause database (Chanseok Oh's scheme, as in
//     COMiniSatPS): core clauses (LBD <= coreLBD) are kept forever,
//     mid-tier clauses (LBD <= midLBD) survive reductions only while
//     they keep participating in conflicts, and local clauses compete
//     on activity with half the tier dropped at every reduction.
//     Clauses are promoted when conflict analysis observes a better LBD.
//
//   - The threshold of chronological backtracking (Nadel & Ryvchin,
//     SAT'18), in its simple sound form: when the asserting level is
//     far below the conflict level, Solve backtracks one level instead
//     of jumping, and asserts the learnt literal there. The trail stays
//     level-monotone (no out-of-order assignments), so conflict
//     analysis needs no changes; what is saved is the re-propagation of
//     the many levels a long jump would discard.

import "sort"

// Tiers of the learnt-clause database. Ordering matters: promotion
// moves a clause to a numerically smaller tier.
const (
	tierCore int8 = iota
	tierMid
	tierLocal
)

// searchConfig holds the tier bounds and the chronological-backtracking
// threshold. New sets the defaults; tests shrink them to make the
// machinery fire on small instances.
type searchConfig struct {
	coreLBD int // clauses with LBD <= coreLBD are kept forever
	midLBD  int // clauses with LBD <= midLBD start in the mid tier
	// chrono is the backjump-distance threshold above which the solver
	// backtracks chronologically (one level) instead of jumping to the
	// asserting level.
	chrono int
}

func defaultSearch() searchConfig {
	return searchConfig{
		coreLBD: 3,
		midLBD:  6,
		chrono:  100,
	}
}

// tierFor maps an LBD to the tier a clause with that LBD belongs in.
func (s *Solver) tierFor(lbd int) int8 {
	switch {
	case lbd <= s.search.coreLBD:
		return tierCore
	case lbd <= s.search.midLBD:
		return tierMid
	default:
		return tierLocal
	}
}

// reduceDB halves the learnt database, then reclaims the region's
// dead words once they pass a fifth of it.
func (s *Solver) reduceDB() {
	s.reduceDBTiered()
	if s.ca.wasted > len(s.ca.mem)/5 {
		s.garbageCollect()
	}
}

// reduceDBTiered is the tier-aware reduction. Core clauses are
// untouchable; mid-tier clauses that took part in no conflict since
// the last reduction are demoted to local; the local tier is sorted by
// activity and its colder half dropped.
func (s *Solver) reduceDBTiered() {
	ca := &s.ca
	keep := s.learnts[:0]
	local := s.reduceTmp[:0]
	for _, c := range s.learnts {
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
