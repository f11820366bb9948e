package sat

import (
	"math/rand"
	"testing"
)

// addLearnt installs a learnt clause directly in the database, the way
// record would, so the inprocessing primitives can be unit-tested
// without driving a full search to manufacture the exact clause.
func addLearnt(s *Solver, tier int8, act float64, used bool, lits ...Lit) cref {
	c := s.ca.alloc(lits, true)
	s.ca.setLBD(c, len(lits))
	s.ca.setActivity(c, act)
	s.ca.setTier(c, tier)
	s.ca.setUsed(c, used)
	s.learnts = append(s.learnts, c)
	s.learntLits += int64(len(lits))
	s.attach(c)
	return c
}

func TestTierFor(t *testing.T) {
	s := New()
	for _, tc := range []struct {
		lbd  int
		want int8
	}{{1, tierCore}, {3, tierCore}, {4, tierMid}, {6, tierMid}, {7, tierLocal}, {30, tierLocal}} {
		if got := s.tierFor(tc.lbd); got != tc.want {
			t.Errorf("tierFor(%d) = %d, want %d", tc.lbd, got, tc.want)
		}
	}
}

// TestSubsumeAntecedents: a learnt antecedent strictly containing the
// freshly learnt clause is deleted on the fly.
func TestSubsumeAntecedents(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	wide := addLearnt(s, tierLocal, 1, false, Pos(a), Pos(b), Pos(c))
	other := addLearnt(s, tierLocal, 1, false, Pos(a), Neg(b), Pos(c))
	s.ante = append(s.ante[:0], wide, other)

	s.subsumeAntecedents([]Lit{Pos(a), Pos(b)})
	if !s.ca.deleted(wide) {
		t.Fatal("superset antecedent not subsumed")
	}
	if s.ca.deleted(other) {
		t.Fatal("non-superset antecedent wrongly deleted")
	}
	if s.stats.SubsumedLearnts != 1 {
		t.Fatalf("SubsumedLearnts = %d, want 1", s.stats.SubsumedLearnts)
	}
}

// TestReduceDBTiered: core clauses are kept unconditionally, mid
// clauses survive only if used since the last reduction (and the mark
// is consumed), and the local tier is halved by activity.
func TestReduceDBTiered(t *testing.T) {
	s := New()
	v := make([]int, 12)
	for i := range v {
		v[i] = s.NewVar()
	}
	core := addLearnt(s, tierCore, 0, false, Pos(v[0]), Pos(v[1]))
	midUsed := addLearnt(s, tierMid, 0, true, Pos(v[2]), Pos(v[3]))
	midIdle := addLearnt(s, tierMid, 5, false, Pos(v[4]), Pos(v[5]))
	localHot := addLearnt(s, tierLocal, 10, false, Pos(v[6]), Pos(v[7]))
	localCold := addLearnt(s, tierLocal, 1, false, Pos(v[8]), Pos(v[9]))
	gone := addLearnt(s, tierLocal, 99, false, Pos(v[10]), Pos(v[11]))
	s.removeLearnt(gone) // already logically deleted: must be purged

	s.reduceDBTiered()

	ca := &s.ca
	if ca.deleted(core) || ca.deleted(midUsed) {
		t.Fatal("core or used-mid clause dropped by tiered reduction")
	}
	if ca.used(midUsed) {
		t.Fatal("mid-tier usage mark not consumed by the reduction")
	}
	if ca.tier(midIdle) != tierLocal && !ca.deleted(midIdle) {
		t.Fatalf("idle mid clause neither demoted nor dropped (tier %d)", ca.tier(midIdle))
	}
	// The local pool was {demoted midIdle(5), localHot(10), localCold(1)}:
	// halving by activity keeps the hottest and drops the coldest.
	if ca.deleted(localHot) {
		t.Fatal("highest-activity local clause dropped")
	}
	if !ca.deleted(localCold) {
		t.Fatal("lowest-activity local clause kept over hotter ones")
	}
	for _, c := range s.learnts {
		if ca.deleted(c) {
			t.Fatal("deleted clause not purged from the learnt list")
		}
	}
}

// TestInprocessAgreesWithBaseline solves the same random instances
// with inprocessing forced on (chronological backtracking at every
// chance, so the in-search techniques fire) and fully off, and demands identical verdicts, valid models, and agreement with
// brute force on the small instances.
func TestInprocessAgreesWithBaseline(t *testing.T) {
	fired := Stats{}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		numVars := 12 + rng.Intn(6)
		numClauses := int(float64(numVars)*4.3) + rng.Intn(10)
		var clauses [][]Lit
		for i := 0; i < numClauses; i++ {
			c := make([]Lit, 3)
			for j := range c {
				c[j] = MkLit(rng.Intn(numVars), rng.Intn(2) == 0)
			}
			clauses = append(clauses, c)
		}
		build := func(inprocess bool) *Solver {
			s := New()
			s.SetInprocess(inprocess)
			if inprocess {
				s.inpro.chrono = 1
			}
			for v := 0; v < numVars; v++ {
				s.NewVar()
			}
			for _, c := range clauses {
				s.AddClause(c...)
			}
			return s
		}
		on, off := build(true), build(false)
		stOn, stOff := on.Solve(), off.Solve()
		if stOn != stOff {
			t.Fatalf("seed %d: inprocess=%v, baseline=%v", seed, stOn, stOff)
		}
		want := bruteForce(numVars, clauses)
		if (stOn == Sat) != want {
			t.Fatalf("seed %d: verdict %v disagrees with brute force (sat=%v)", seed, stOn, want)
		}
		if stOn == Sat {
			modelSatisfies(t, on, clauses)
			modelSatisfies(t, off, clauses)
		}
		st := on.Stats()
		fired.SubsumedLearnts += st.SubsumedLearnts
		fired.ChronoBacktracks += st.ChronoBacktracks
		if ost := off.Stats(); ost.SubsumedLearnts+ost.ChronoBacktracks != 0 {
			t.Fatalf("seed %d: inprocessing counters nonzero with SetInprocess(false)", seed)
		}
	}
	// The cadence above is aggressive enough that the machinery must
	// actually run somewhere across 25 seeds — otherwise the agreement
	// checks are vacuous.
	if fired.SubsumedLearnts+fired.ChronoBacktracks == 0 {
		t.Fatal("no inprocessing technique ever fired across all seeds")
	}
}

// TestInprocessLargerPlanted runs the default inprocessing layer on
// instances big enough to restart and reduce, as an integration check that tier
// bookkeeping and logical deletion never corrupt the database.
func TestInprocessLargerPlanted(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		s := New()
		clauses := plantedInstance(s, 80, 340, seed)
		if st := s.Solve(); st != Sat {
			t.Fatalf("seed %d: planted instance = %v, want Sat", seed, st)
		}
		modelSatisfies(t, s, clauses)
		st := s.Stats()
		if st.TierCore+st.TierMid+st.TierLocal != st.Learnts {
			t.Fatalf("seed %d: tier sizes %d+%d+%d != learnts %d",
				seed, st.TierCore, st.TierMid, st.TierLocal, st.Learnts)
		}
	}
}
