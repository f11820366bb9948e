package sat

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"checkfence/internal/faultinject"
)

// hardInstance loads a pigeonhole instance hard enough that no budget
// under test lets the solver finish.
func hardInstance(s *Solver) {
	pigeonholeInstance(s, 9)
}

func TestConflictBudgetTyped(t *testing.T) {
	s := New()
	hardInstance(s)
	s.SetBudget(50)
	if st := s.Solve(); st != Unknown {
		t.Fatalf("status = %v, want Unknown", st)
	}
	be := s.BudgetErr()
	if be == nil {
		t.Fatal("BudgetErr() = nil after conflict budget exhaustion")
	}
	if be.Kind != BudgetConflicts {
		t.Errorf("Kind = %v, want conflicts", be.Kind)
	}
	if be.Spent < 50 {
		t.Errorf("Spent = %d, want >= 50", be.Spent)
	}
	if !errors.Is(be, ErrBudgetExhausted) {
		t.Error("errors.Is(be, ErrBudgetExhausted) = false")
	}
}

func TestDeadlineBudget(t *testing.T) {
	s := New()
	hardInstance(s)
	s.SetDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	if st := s.Solve(); st != Unknown {
		t.Fatalf("status = %v, want Unknown", st)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline stop took %v; check cadence is broken", elapsed)
	}
	be := s.BudgetErr()
	if be == nil || be.Kind != BudgetDeadline {
		t.Fatalf("BudgetErr() = %v, want deadline cause", be)
	}
}

func TestDeadlineAlreadyPast(t *testing.T) {
	s := New()
	hardInstance(s)
	s.SetDeadline(time.Now().Add(-time.Second))
	if st := s.Solve(); st != Unknown {
		t.Fatalf("status = %v, want Unknown", st)
	}
	if be := s.BudgetErr(); be == nil || be.Kind != BudgetDeadline {
		t.Fatalf("BudgetErr() = %v, want deadline cause", be)
	}
}

func TestMemBudget(t *testing.T) {
	s := New()
	hardInstance(s)
	// ~5 learnt clauses' worth: the forced reduction cannot get the
	// database under this on a pigeonhole instance mid-search.
	s.SetMemBudget(512)
	if st := s.Solve(); st != Unknown {
		t.Fatalf("status = %v, want Unknown", st)
	}
	be := s.BudgetErr()
	if be == nil || be.Kind != BudgetMemory {
		t.Fatalf("BudgetErr() = %v, want memory cause", be)
	}
	if be.Spent <= 512 {
		t.Errorf("Spent = %d, want > budget", be.Spent)
	}
}

// TestBudgetErrNilOnInterrupt: a solve stopped from another goroutine
// (the stop predicate a context cancellation installs) is
// cancellation, not exhaustion — BudgetErr must stay nil so callers
// can tell them apart.
func TestBudgetErrNilOnInterrupt(t *testing.T) {
	s := New()
	hardInstance(s)
	var stopped atomic.Bool
	s.SetStop(stopped.Load)
	done := make(chan Status, 1)
	go func() { done <- s.Solve() }()
	time.Sleep(20 * time.Millisecond)
	stopped.Store(true)
	if st := <-done; st != Unknown {
		t.Fatalf("status = %v, want Unknown", st)
	}
	if be := s.BudgetErr(); be != nil {
		t.Fatalf("BudgetErr() = %v after a stop, want nil", be)
	}
}

// TestBudgetClearedOnResolve: lifting the budget and re-solving on the
// same solver reaches a definitive verdict and resets BudgetErr — the
// solver state stays reusable after exhaustion.
func TestBudgetClearedOnResolve(t *testing.T) {
	s := New()
	pigeonholeInstance(s, 5)
	s.SetBudget(1)
	if st := s.Solve(); st != Unknown {
		t.Fatalf("status = %v, want Unknown", st)
	}
	if s.BudgetErr() == nil {
		t.Fatal("BudgetErr() = nil after exhaustion")
	}
	s.SetBudget(0)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("status after lifting budget = %v, want Unsat", st)
	}
	if be := s.BudgetErr(); be != nil {
		t.Fatalf("BudgetErr() = %v after definitive solve, want nil", be)
	}
}

// TestInjectedBudget: the SolverBudget fault site forces a typed
// injected exhaustion out of Solve.
func TestInjectedBudget(t *testing.T) {
	s := New()
	hardInstance(s)
	s.SetFaults(&faultinject.Always{Sites: []faultinject.Site{faultinject.SolverBudget}})
	if st := s.Solve(); st != Unknown {
		t.Fatalf("status = %v, want Unknown", st)
	}
	if be := s.BudgetErr(); be == nil || be.Kind != BudgetInjected {
		t.Fatalf("BudgetErr() = %v, want injected cause", be)
	}
}

// TestInjectedSolvePanic: the SolvePanic site panics inside the search
// loop with the typed Injected value.
func TestInjectedSolvePanic(t *testing.T) {
	s := New()
	hardInstance(s)
	s.SetFaults(&faultinject.Always{Sites: []faultinject.Site{faultinject.SolvePanic}})
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("Solve did not panic under an armed SolvePanic site")
		}
		if site := faultinject.InjectedSite(p); site != faultinject.SolvePanic {
			t.Fatalf("recovered %v, want injected solve-panic", p)
		}
	}()
	s.Solve()
}

// TestInjectedAllocPanic: the SolverAlloc site panics in NewVar.
func TestInjectedAllocPanic(t *testing.T) {
	s := New()
	s.SetFaults(&faultinject.Always{Sites: []faultinject.Site{faultinject.SolverAlloc}})
	defer func() {
		if site := faultinject.InjectedSite(recover()); site != faultinject.SolverAlloc {
			t.Fatal("NewVar did not raise the injected alloc panic")
		}
	}()
	s.NewVar()
}
