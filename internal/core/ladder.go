package core

// This file implements the resource-governance layer of the driver:
// per-check budgets (wall clock, conflicts, memory) and the
// degradation ladder that steps a failing check down through cheaper
// strategies — from a forced reads-from engine to SAT, then from the
// configured SAT solve to one without CNF preprocessing — before
// giving up with a structured VerdictUnknown.
// CheckFence's queries are worst-case intractable, so a production
// suite needs every check to terminate with *some* answer: a verdict
// when the budgets allow one, and an explanation when they do not.

import (
	"errors"
	"time"

	"checkfence/internal/faultinject"
	"checkfence/internal/rf"
	"checkfence/internal/sat"
	"checkfence/internal/spec"
)

// Verdict is the three-valued outcome of a check.
type Verdict int

const (
	// VerdictPass: the implementation's observable behavior on this
	// test is included in the serial specification.
	VerdictPass Verdict = iota
	// VerdictFail: a counterexample (or sequential bug) was found.
	VerdictFail
	// VerdictUnknown: every rung of the degradation ladder exhausted
	// its budget; Result.Budget explains what was tried.
	VerdictUnknown
)

func (v Verdict) String() string {
	switch v {
	case VerdictPass:
		return "pass"
	case VerdictFail:
		return "fail"
	case VerdictUnknown:
		return "unknown"
	}
	return "invalid"
}

// Rung is one step of the degradation ladder: a named strategy the
// check is attempted with. Later rungs are cheaper (less
// preprocessing) and so more likely to fit a budget's constant
// factors, at the cost of raw speed on hard instances.
type Rung struct {
	Name         string
	Backend      Backend
	NoPreprocess bool
}

// apply substitutes the rung's strategy into the options.
func (r Rung) apply(opts Options) Options {
	opts.Backend = r.Backend
	if r.NoPreprocess {
		opts.NoPreprocess = true
	}
	return opts
}

// RungReport records one exhausted ladder rung: what stopped it and
// how long it ran.
type RungReport struct {
	Name     string
	Err      string
	Budget   string // exhausted budget axis, "" when not budget-caused
	Duration time.Duration
}

// BudgetReport explains a check's resource governance: the configured
// budgets and the per-rung attempts. A Result with VerdictUnknown
// always carries one; a definitive Result carries one only when an
// earlier rung was exhausted first (the verdict came from a degraded
// strategy).
type BudgetReport struct {
	Deadline       time.Duration
	ConflictBudget int64
	MemBudgetMB    int
	Rungs          []RungReport
}

func (o Options) budgetReport(rungs []RungReport) *BudgetReport {
	return &BudgetReport{
		Deadline:       o.Deadline,
		ConflictBudget: o.ConflictBudget,
		MemBudgetMB:    o.MemBudgetMB,
		Rungs:          rungs,
	}
}

// ladder returns the effective degradation ladder: Options.Ladder when
// set, otherwise [rf →] configured → without CNF preprocessing. The
// no-preprocess rung is skipped when preprocessing is already off.
func (o Options) ladder() []Rung {
	if len(o.Ladder) > 0 {
		return o.Ladder
	}
	var rungs []Rung
	satBackend := o.Backend
	if o.Backend == BackendRF {
		// A forced rf backend gets its own leading rung; exhaustion
		// (budget, inapplicability) degrades to the SAT rungs below —
		// never the reverse.
		rungs = append(rungs, Rung{Name: "rf", Backend: BackendRF})
		satBackend = BackendSAT
	}
	rungs = append(rungs, Rung{Name: "configured", Backend: satBackend, NoPreprocess: o.NoPreprocess})
	if !o.NoPreprocess {
		rungs = append(rungs, Rung{Name: "no-preprocess", Backend: satBackend, NoPreprocess: true})
	}
	return rungs
}

// cancelled reports whether Options.Cancel has been closed.
func (o Options) cancelled() bool {
	if o.Cancel == nil {
		return false
	}
	select {
	case <-o.Cancel:
		return true
	default:
		return false
	}
}

// degradable reports whether an attempt's error warrants stepping down
// the ladder: budget exhaustion, a solver-internal Unknown, or a
// recovered panic. External cancellation is never degradable —
// the caller asked the check to stop, not to try harder with less.
func degradable(err error, opts Options) bool {
	if opts.cancelled() {
		return false
	}
	if errors.Is(err, sat.ErrBudgetExhausted) {
		return true
	}
	if errors.Is(err, rf.ErrBudget) || errors.Is(err, rf.ErrNotApplicable) {
		// The reads-from rung could not answer; SAT rungs remain.
		return true
	}
	if errors.Is(err, spec.ErrMineLimit) {
		// The enumeration limit is strategy-independent; a cheaper
		// rung hits it identically.
		return false
	}
	if errors.Is(err, spec.ErrSolverUnknown) {
		return true
	}
	var rp *faultinject.RecoveredPanic
	return errors.As(err, &rp)
}

// rungReport summarizes one exhausted attempt.
func rungReport(r Rung, err error, d time.Duration) RungReport {
	rep := RungReport{Name: r.Name, Err: err.Error(), Duration: d}
	var be *sat.ErrBudget
	if errors.As(err, &be) {
		rep.Budget = be.Kind.String()
	}
	return rep
}
