package sat

import (
	"testing"
	"time"
)

func TestInterruptBeforeSolveIsSticky(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(Pos(a), Pos(b))
	s.Interrupt()
	if got := s.Solve(); got != Unknown {
		t.Fatalf("Solve with pending interrupt = %v, want Unknown", got)
	}
	// Sticky: a second Solve is still interrupted.
	if got := s.Solve(); got != Unknown {
		t.Fatalf("second Solve = %v, want Unknown (flag is sticky)", got)
	}
	s.ClearInterrupt()
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve after ClearInterrupt = %v, want Sat", got)
	}
}

// TestInterruptMidSolve interrupts a hard instance from within the
// solve loop (via the stop predicate, so the interruption lands
// deterministically mid-search), then verifies the solver remains
// usable and that clauses learned before the interruption are sound:
// re-solving the same UNSAT instance still returns Unsat.
func TestInterruptMidSolve(t *testing.T) {
	s := New()
	pigeonholeInstance(s, 8)
	fired := false
	s.SetStop(func() bool {
		if !fired {
			fired = true
			s.Interrupt()
		}
		return false
	})
	if got := s.Solve(); got != Unknown {
		t.Fatalf("interrupted Solve = %v, want Unknown", got)
	}
	if !fired {
		t.Fatal("stop predicate was never polled")
	}
	learnedBefore := s.Stats().Learnts

	s.SetStop(nil)
	s.ClearInterrupt()
	if got := s.Solve(); got != Unsat {
		t.Fatalf("re-Solve after interrupt = %v, want Unsat (learned clauses must stay sound)", got)
	}
	if learnedBefore == 0 {
		t.Log("note: interruption landed before the first learnt clause")
	}
}

func TestSetStopPredicateStopsSolve(t *testing.T) {
	s := New()
	pigeonholeInstance(s, 8)
	s.SetStop(func() bool { return true })
	if got := s.Solve(); got != Unknown {
		t.Fatalf("Solve with always-true stop = %v, want Unknown", got)
	}
	s.SetStop(nil)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve after removing stop = %v, want Unsat", got)
	}
}

// TestInterruptFromAnotherGoroutine exercises the asynchronous use:
// Interrupt is called concurrently with Solve (run under -race).
func TestInterruptFromAnotherGoroutine(t *testing.T) {
	s := New()
	pigeonholeInstance(s, 9)
	done := make(chan Status, 1)
	go func() { done <- s.Solve() }()
	time.Sleep(20 * time.Millisecond)
	s.Interrupt()
	select {
	case got := <-done:
		// The solve may legitimately have finished before the
		// interrupt landed; both verdicts are acceptable, Sat is not.
		if got != Unknown && got != Unsat {
			t.Fatalf("Solve = %v, want Unknown or Unsat", got)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Solve did not return after Interrupt")
	}
	// Usability after an async interrupt: a budgeted re-solve must
	// run normally (soundness of the learned clauses on this instance
	// is covered by TestInterruptMidSolve; solving PHP(9) to
	// completion here would dominate the -race run).
	s.ClearInterrupt()
	s.SetBudget(500)
	if got := s.Solve(); got == Sat {
		t.Fatalf("Solve after async interrupt = %v on an UNSAT instance", got)
	}
}

func TestComputeLBDStamps(t *testing.T) {
	s := New()
	var lits []Lit
	for i := 0; i < 6; i++ {
		lits = append(lits, Pos(s.NewVar()))
	}
	// Levels: 0,1,1,2,3,3 -> 4 distinct.
	for i, lv := range []int32{0, 1, 1, 2, 3, 3} {
		s.levels[i] = lv
	}
	if got := s.computeLBD(lits); got != 4 {
		t.Fatalf("computeLBD = %d, want 4", got)
	}
	// A second call must not be polluted by the first (stamp
	// generation advances).
	if got := s.computeLBD(lits[:2]); got != 2 {
		t.Fatalf("second computeLBD = %d, want 2", got)
	}
}
