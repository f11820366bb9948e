package sat

import "testing"

// TestSharePoolCursors: drains see each foreign clause exactly once,
// never their own exports, and a bounded buffer drops its oldest.
func TestSharePoolCursors(t *testing.T) {
	p := NewSharePool(2, 6, 4)
	for i := 0; i < 3; i++ {
		p.export(0, []Lit{Pos(i)}, 2)
	}
	p.export(1, []Lit{Neg(9)}, 2)

	var got [][]Lit
	collect := func(lits []Lit, lbd int) { got = append(got, lits) }
	p.drain(1, collect)
	if len(got) != 3 {
		t.Fatalf("member 1 drained %d clauses, want 3 (member 0's exports only)", len(got))
	}
	got = nil
	p.drain(1, collect)
	if len(got) != 0 {
		t.Fatalf("second drain re-delivered %d clauses, want 0", len(got))
	}

	// Overflow the ring: capacity 4, export 6 more; a fresh drain sees
	// only the newest 4.
	for i := 0; i < 6; i++ {
		p.export(0, []Lit{Pos(100 + i)}, 2)
	}
	got = nil
	p.drain(1, collect)
	if len(got) != 4 {
		t.Fatalf("drained %d clauses after overflow, want 4", len(got))
	}
	if got[0][0] != Pos(102) {
		t.Fatalf("oldest surviving clause = %v, want %v", got[0][0], Pos(102))
	}
}

// TestSolveSharedUnsat: a clause-sharing portfolio on a hard UNSAT
// instance agrees with the serial verdict and actually exchanges
// clauses (PHP forces plenty of restarts).
func TestSolveSharedUnsat(t *testing.T) {
	base := New()
	pigeonholeInstance(base, 7)
	p := Portfolio{Configs: PortfolioConfigs(4), ShareClauses: true}
	run := p.SolveShared(base)
	if run.Status != Unsat {
		t.Fatalf("verdict = %v, want Unsat", run.Status)
	}
	if run.Work.SharedExported == 0 {
		t.Error("no clauses exported; sharing is wired up wrong")
	}
	if run.Work.SharedImported == 0 {
		t.Error("no clauses imported; restart-boundary import never ran")
	}
}

// TestSolveSharedSat: the winner's model satisfies the formula, and
// adopting it makes the base solver report it.
func TestSolveSharedSat(t *testing.T) {
	base := New()
	clauses := plantedInstance(base, 40, 160, 21)
	p := Portfolio{Configs: PortfolioConfigs(3), ShareClauses: true}
	run := p.SolveShared(base)
	if run.Status != Sat {
		t.Fatalf("verdict = %v, want Sat", run.Status)
	}
	modelSatisfies(t, run.Winner, clauses)
	if run.Winner != base {
		base.AdoptModelFrom(run.Winner)
	}
	modelSatisfies(t, base, clauses)
}

// TestSolveSharedSingleMember degenerates to a plain solve on base.
func TestSolveSharedSingleMember(t *testing.T) {
	base := New()
	clauses := plantedInstance(base, 20, 80, 5)
	p := Portfolio{Configs: PortfolioConfigs(1)}
	run := p.SolveShared(base)
	if run.Status != Sat {
		t.Fatalf("verdict = %v, want Sat", run.Status)
	}
	if run.Winner != base {
		t.Fatal("single-member portfolio must solve base itself")
	}
	modelSatisfies(t, base, clauses)
}

// TestForcedImportCadence: a solve too short to trip a restart policy
// (glucose needs 100+ conflicts) must still drain the import hook on
// the forced cadence — a clause planted mid-solve gets imported. This
// regressed silently before: short portfolio solves exported clauses
// but imported none (entry-time and restart-boundary drains only).
func TestForcedImportCadence(t *testing.T) {
	s := New()
	pigeonholeInstance(s, 4)
	s.SetShareImportInterval(1)
	calls := 0
	planted := false
	s.SetShare(6, nil, func(add func(lits []Lit, lbd int)) {
		calls++
		if calls == 2 && !planted {
			planted = true
			// An already-true tautology-free clause over real variables:
			// imported, attached, and harmless to the verdict.
			add([]Lit{Pos(0), Neg(0 + 1), Pos(2)}, 2)
		}
	})
	if st := s.Solve(); st != Unsat {
		t.Fatalf("verdict = %v, want Unsat", st)
	}
	stats := s.Stats()
	if stats.Conflicts < 2 || stats.Conflicts >= 100 {
		t.Fatalf("premise broken: %d conflicts (want 2..99 so no glucose restart fires)", stats.Conflicts)
	}
	if calls < 2 {
		t.Fatalf("import hook ran %d times; forced cadence never fired", calls)
	}
	if !planted || stats.SharedImported != 1 {
		t.Fatalf("planted clause not imported: planted=%v imported=%d", planted, stats.SharedImported)
	}
}

// TestImportSharedSound: a directly injected foreign clause is
// simplified against the root assignment and participates in
// propagation.
func TestImportSharedSound(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(Pos(a))                  // root unit
	s.AddClause(Neg(b), Pos(c))          // b -> c
	foreign := [][]Lit{{Neg(a), Pos(b)}} // simplifies to unit b at root
	s.SetShare(6, nil, func(add func(lits []Lit, lbd int)) {
		for _, f := range foreign {
			add(f, 2)
		}
		foreign = nil
	})
	if st := s.Solve(); st != Sat {
		t.Fatalf("verdict = %v, want Sat", st)
	}
	if !s.Value(b) || !s.Value(c) {
		t.Fatalf("imported unit did not propagate: b=%v c=%v", s.Value(b), s.Value(c))
	}
	if got := s.Stats().SharedImported; got != 1 {
		t.Fatalf("SharedImported = %d, want 1", got)
	}
}
