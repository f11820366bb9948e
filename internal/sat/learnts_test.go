package sat

import (
	"math/rand"
	"testing"
)

// addLearnt installs a learnt clause directly in the database, the way
// record would, so the tier machinery can be unit-tested without
// driving a full search to manufacture the exact clause.
func addLearnt(s *Solver, tier int8, act float64, used bool, lits ...Lit) {
	c := s.ca.alloc(lits, true)
	s.ca.setLBD(c, len(lits))
	s.ca.setActivity(c, act)
	s.ca.setTier(c, tier)
	s.ca.setUsed(c, used)
	s.learnts = append(s.learnts, c)
	s.attach(c)
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

// TestReduceDBTiered: core clauses are kept unconditionally, mid
// clauses survive only if used since the last reduction (and the mark
// is consumed), and the local tier is halved by activity. The dropped
// clauses push the region's waste past the collection threshold, so
// the survivors are looked up by their first literal, not their cref.
func TestReduceDBTiered(t *testing.T) {
	s := New()
	v := make([]int, 10)
	for i := range v {
		v[i] = s.NewVar()
	}
	addLearnt(s, tierCore, 0, false, Pos(v[0]), Pos(v[1]))
	addLearnt(s, tierMid, 0, true, Pos(v[2]), Pos(v[3]))
	addLearnt(s, tierMid, 5, false, Pos(v[4]), Pos(v[5]))
	addLearnt(s, tierLocal, 10, false, Pos(v[6]), Pos(v[7]))
	addLearnt(s, tierLocal, 1, false, Pos(v[8]), Pos(v[9]))

	s.reduceDB()

	ca := &s.ca
	kept := map[Lit]cref{}
	for _, c := range s.learnts {
		if ca.deleted(c) {
			t.Fatal("dropped clause still in the learnt list")
		}
		kept[ca.lits(c)[0]] = c
	}
	_, okCore := kept[Pos(v[0])]
	midUsed, okMid := kept[Pos(v[2])]
	if !okCore || !okMid {
		t.Fatal("core or used-mid clause dropped by tiered reduction")
	}
	if ca.used(midUsed) {
		t.Fatal("mid-tier usage mark not consumed by the reduction")
	}
	if midIdle, ok := kept[Pos(v[4])]; ok && ca.tier(midIdle) != tierLocal {
		t.Fatalf("idle mid clause neither demoted nor dropped (tier %d)", ca.tier(midIdle))
	}
	// The local pool was {demoted midIdle(5), localHot(10), localCold(1)}:
	// halving by activity keeps the hottest and drops the coldest.
	if _, ok := kept[Pos(v[6])]; !ok {
		t.Fatal("highest-activity local clause dropped")
	}
	if _, ok := kept[Pos(v[8])]; ok {
		t.Fatal("lowest-activity local clause kept over hotter ones")
	}
}

// TestBumpClauseSkipsProblemClauses: only learnt clauses keep an
// activity. A problem clause bumped past the rescale threshold would
// otherwise divide claInc and every learnt activity by 1e20 at each
// later bump, since the rescale walks the learnts alone.
func TestBumpClauseSkipsProblemClauses(t *testing.T) {
	s := New()
	v := newVars(s, 5)
	s.AddClause(Pos(v[0]), Pos(v[1]), Pos(v[2]))
	addLearnt(s, tierLocal, 7, false, Pos(v[3]), Neg(v[4]))
	s.claInc = 6e19
	for range 3 {
		s.bumpClause(s.clauses[0])
	}
	if s.claInc != 6e19 {
		t.Errorf("claInc = %g after bumping a problem clause, want 6e19", s.claInc)
	}
	if a := s.ca.activity(s.learnts[0]); a != 7 {
		t.Errorf("learnt activity = %g after bumping a problem clause, want 7", a)
	}
}

// TestInprocessAgreesWithBaseline solves random instances with
// chronological backtracking at every chance (chrono = 1) and demands
// agreement with brute force and valid models.
func TestInprocessAgreesWithBaseline(t *testing.T) {
	var chrono int64
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
		s := New()
		s.search.chrono = 1
		for v := 0; v < numVars; v++ {
			s.NewVar()
		}
		for _, c := range clauses {
			s.AddClause(c...)
		}
		st := s.Solve()
		if want := bruteForce(numVars, clauses); (st == Sat) != want {
			t.Fatalf("seed %d: verdict %v disagrees with brute force (sat=%v)", seed, st, want)
		}
		if st == Sat {
			modelSatisfies(t, s, clauses)
		}
		chrono += s.Stats().ChronoBacktracks
	}
	// The threshold above is low enough that chronological backtracking
	// must actually happen somewhere across 25 seeds — otherwise the
	// agreement checks are vacuous.
	if chrono == 0 {
		t.Fatal("no chronological backtrack across all seeds")
	}
}

// TestInprocessLargerPlanted runs the default solver on instances big
// enough to restart and reduce, as an integration check that tier
// bookkeeping never corrupts the database.
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
