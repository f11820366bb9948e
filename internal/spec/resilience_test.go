package spec

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"checkfence/internal/faultinject"
	"checkfence/internal/sat"
)

// waitGoroutines polls until the goroutine count drops back to the
// baseline (or a timeout), absorbing scheduler lag.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines did not drain: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// TestMineCancelMidEnumeration: cancelling via the solver's stop
// predicate in the middle of the enumeration returns promptly with no
// set and an ErrSolverUnknown (not a budget error), leaks no worker
// goroutines, and leaves the solver reusable.
func TestMineCancelMidEnumeration(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e, entries := buildWideMiningEncoder(t)
	// The solver is deterministic, so tripping the stop on a fixed
	// poll lands in the same enumeration solve every run: after the
	// sequential-bug check and some observations, before the last.
	var polls atomic.Int64
	e.S.SetStop(func() bool { return polls.Add(1) > 4 })
	set, stats, err := MineWith(e, entries, Strategy{})
	if !errors.Is(err, ErrSolverUnknown) {
		t.Fatalf("err = %v, want ErrSolverUnknown", err)
	}
	if !strings.Contains(err.Error(), "during mining") || stats.Iterations == 0 {
		t.Fatalf("err = %v after %d iterations, want a stop inside the enumeration", err, stats.Iterations)
	}
	if errors.Is(err, sat.ErrBudgetExhausted) {
		t.Errorf("cancellation reported as budget exhaustion: %v", err)
	}
	if set != nil {
		t.Errorf("cancelled mine returned a set of %d observations, want nil", set.Len())
	}
	waitGoroutines(t, baseline)

	// The solver must stay reusable once the stop is lifted.
	e.S.SetStop(nil)
	if st := e.S.Solve(); st == sat.Unknown {
		t.Errorf("solver unusable after cancellation (status %v)", st)
	}
}

// TestInclusionCancelMidSolve: stopping the inclusion solve returns a
// wrapped ErrSolverUnknown promptly and leaks no goroutines.
func TestInclusionCancelMidSolve(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e, entries := buildWideMiningEncoder(t)
	var calls atomic.Int64
	e.S.SetStop(func() bool { return calls.Add(1) > 0 })
	empty := NewSet() // empty spec: the solve would be Sat if it ran to completion
	start := time.Now()
	_, err := CheckInclusionWith(e, entries, empty, Strategy{})
	if !errors.Is(err, ErrSolverUnknown) {
		t.Fatalf("err = %v, want ErrSolverUnknown", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled inclusion check took %v", elapsed)
	}
	waitGoroutines(t, baseline)
}

// TestMineBudgetTypedCause: a conflict budget on the mining solver
// surfaces the typed *sat.ErrBudget through the ErrSolverUnknown
// wrap, so upstream can tell exhaustion from cancellation.
func TestMineBudgetTypedCause(t *testing.T) {
	e, entries := buildWideMiningEncoder(t)
	e.S.SetBudget(1)
	set, _, err := MineWith(e, entries, Strategy{})
	if !errors.Is(err, ErrSolverUnknown) {
		t.Fatalf("err = %v, want ErrSolverUnknown wrap", err)
	}
	if !errors.Is(err, sat.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want a *sat.ErrBudget in the chain", err)
	}
	var be *sat.ErrBudget
	if !errors.As(err, &be) || be.Kind != sat.BudgetConflicts {
		t.Fatalf("err = %v, want conflicts cause", err)
	}
	if set != nil {
		t.Errorf("budget-stopped mine returned a set of %d observations, want nil", set.Len())
	}
}

// TestMinePanicInjection: the MinePanic site raises the typed panic
// out of MineWith, where the callers' panic-isolation layers (suite
// workers) recover it into a per-check error.
func TestMinePanicInjection(t *testing.T) {
	e, entries := buildWideMiningEncoder(t)
	defer func() {
		if site := faultinject.InjectedSite(recover()); site != faultinject.MinePanic {
			t.Error("MineWith did not raise the injected mine panic")
		}
	}()
	MineWith(e, entries, Strategy{
		Faults: &faultinject.Always{Sites: []faultinject.Site{faultinject.MinePanic}},
	})
}
