package sat

// This file implements per-Solve resource budgets. CheckFence's
// queries are worst-case intractable, so a production caller cannot
// assume any individual solve terminates or fits in memory: budgets
// turn "hangs forever" and "eats the heap" into a typed, prompt
// *ErrBudget that the driver upstream reports as an UNKNOWN verdict.
//
// Three budget axes are supported:
//
//   - conflicts (SetBudget): CDCL conflicts per Solve
//   - wall clock (SetDeadline): an absolute deadline checked at the
//     same cadence as the external stop predicate
//   - memory (SetMemBudget): an approximate byte ceiling on the
//     learned-clause database; when crossed the solver first forces a
//     clause-DB reduction and caps further growth, and only stops if
//     the bound still cannot be met
//
// All budgets are sticky across Solve calls (a multi-solve procedure
// such as mining shares them); each Solve call re-arms its own
// counters. A Solve that stops on a budget returns Unknown and
// records the typed cause, readable via BudgetErr until the next
// Solve; a Solve stopped by the stop predicate leaves BudgetErr nil,
// so callers can tell cancellation from exhaustion.

import (
	"errors"
	"fmt"
	"time"

	"checkfence/internal/faultinject"
)

// BudgetKind names the budget axis an ErrBudget exhausted.
type BudgetKind int

const (
	// BudgetConflicts is the per-Solve conflict cap (SetBudget).
	BudgetConflicts BudgetKind = iota
	// BudgetDeadline is the wall-clock deadline (SetDeadline).
	BudgetDeadline
	// BudgetMemory is the learned-clause database byte ceiling.
	BudgetMemory
	// BudgetInjected marks a budget exhaustion forced by fault
	// injection (faultinject.SolverBudget).
	BudgetInjected
)

func (k BudgetKind) String() string {
	switch k {
	case BudgetConflicts:
		return "conflicts"
	case BudgetDeadline:
		return "deadline"
	case BudgetMemory:
		return "memory"
	case BudgetInjected:
		return "injected"
	}
	return fmt.Sprintf("budget(%d)", int(k))
}

// ErrBudgetExhausted is the sentinel all budget errors wrap;
// errors.Is(err, ErrBudgetExhausted) matches any *ErrBudget.
var ErrBudgetExhausted = errors.New("sat: budget exhausted")

// ErrBudget is the typed budget-exhaustion error: which axis ran out
// and how much was spent. Spent is in the axis's natural unit —
// conflicts, elapsed nanoseconds, or bytes.
type ErrBudget struct {
	Kind  BudgetKind
	Spent int64
}

func (e *ErrBudget) Error() string {
	switch e.Kind {
	case BudgetDeadline:
		return fmt.Sprintf("sat: deadline exceeded after %v", time.Duration(e.Spent))
	case BudgetMemory:
		return fmt.Sprintf("sat: learned-clause memory budget exhausted (%d bytes)", e.Spent)
	}
	return fmt.Sprintf("sat: %s budget exhausted (%d spent)", e.Kind, e.Spent)
}

// Is makes errors.Is(err, ErrBudgetExhausted) true for every
// *ErrBudget.
func (e *ErrBudget) Is(target error) bool { return target == ErrBudgetExhausted }

// SetDeadline installs an absolute wall-clock deadline checked
// periodically inside Solve (the zero time removes it). A Solve
// running past it returns Unknown with a BudgetDeadline cause.
func (s *Solver) SetDeadline(t time.Time) { s.deadline = t }

// SetMemBudget sets an approximate byte ceiling on the learned-clause
// database (0 = unlimited). Crossing it first forces a clause-DB
// reduction and caps the growth schedule; if the database still
// exceeds the ceiling (everything kept is locked or precious), Solve
// returns Unknown with a BudgetMemory cause.
func (s *Solver) SetMemBudget(bytes int64) { s.memBudget = bytes }

// SetFaults installs fault-injection hooks consulted in the solve
// loop and the variable allocator (nil removes them). See
// internal/faultinject for the site map.
func (s *Solver) SetFaults(f faultinject.Faults) { s.faults = f }

// BudgetErr returns the typed cause of the last Solve's Unknown
// result when a budget was exhausted, and nil when the solver was
// interrupted or stopped externally (or the last Solve was
// definitive). It is reset at the start of every Solve.
func (s *Solver) BudgetErr() *ErrBudget { return s.budgetErr }

// learntClauseOverhead is the per-clause bookkeeping charged beyond
// the literals. It was sized for pointer-based clause structs; the
// region's 16-byte header and two 8-byte watchers take less, but the
// constant stays so a memory budget trips where it always has.
const learntClauseOverhead = 96

// learntBytes approximates the memory held by the learned-clause
// database.
func (s *Solver) learntBytes() int64 {
	return s.learntLits*4 + int64(len(s.learnts))*learntClauseOverhead
}

// recountLearntLits recomputes the learnt-literal counter after a
// bulk change to the learnt database (reduceDB).
func (s *Solver) recountLearntLits() {
	var n int64
	for _, c := range s.learnts {
		n += int64(s.ca.size(c))
	}
	s.learntLits = n
}

// checkBudgets is the periodic solve-loop checkpoint for the slow
// budget axes (deadline, memory) and the injected faults. It returns a
// non-nil cause when the solve must stop. solveStart is the time of
// Solve entry.
func (s *Solver) checkBudgets(solveStart time.Time) *ErrBudget {
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return &ErrBudget{Kind: BudgetDeadline, Spent: int64(time.Since(solveStart))}
	}
	if s.memBudget > 0 {
		if b := s.learntBytes(); b > s.memBudget {
			// Try to free memory before giving up: halve the database
			// and stop the growth schedule at the current size.
			s.reduceDB()
			if ceiling := float64(len(s.learnts)) + 1; s.maxLearnts > ceiling {
				s.maxLearnts = ceiling
			}
			if b = s.learntBytes(); b > s.memBudget {
				return &ErrBudget{Kind: BudgetMemory, Spent: b}
			}
		}
	}
	if s.faults != nil {
		if s.faults.Fire(faultinject.SolvePanic) {
			panic(faultinject.Injected{Site: faultinject.SolvePanic})
		}
		if s.faults.Fire(faultinject.SolverBudget) {
			return &ErrBudget{Kind: BudgetInjected, Spent: s.stats.Conflicts}
		}
	}
	return nil
}
