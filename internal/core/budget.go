package core

// This file implements the resource-governance layer of the driver:
// per-unit budgets (wall clock, conflicts). A unit — a single
// check or a sweep group — makes one attempt under its deadline and
// budgets; the models that attempt leaves undecided when a budget runs
// out end in a structured VerdictUnknown.
// CheckFence's queries are worst-case intractable, so a production
// suite needs every check to terminate with *some* answer: a verdict
// when the budgets allow one, and an explanation when they do not.

import (
	"errors"
	"time"

	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
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
	// VerdictUnknown: the check exhausted a budget before deciding;
	// Result.Budget says which.
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

// BudgetReport explains why a check ended VerdictUnknown: the
// configured budgets, what stopped the attempt, and how long it ran.
type BudgetReport struct {
	Deadline       time.Duration
	ConflictBudget int64
	// Cause is the exhausted budget axis ("deadline", "conflicts",
	// ...), or the error text when the attempt stopped for another
	// reason (a solver-internal Unknown).
	Cause   string
	Elapsed time.Duration
}

// checkModels runs one unit of work: the given models (strongest
// first) of one implementation and test, decided by one checkAttempt
// under one absolute deadline opts.Deadline from now. A degradable
// failure (budget exhaustion, solver-internal Unknown) turns the models
// the attempt left undecided into VerdictUnknown, each with a
// BudgetReport; the models it decided keep their verdicts. A
// non-degradable failure is returned, with the decided models' results
// (nil elsewhere). The returned slice parallels models.
func checkModels(impl *harness.Impl, test *harness.Test, models []memmodel.Model,
	opts Options) ([]*Result, error) {

	start := time.Now()
	var deadline time.Time
	if opts.Deadline > 0 {
		deadline = start.Add(opts.Deadline)
	}
	results, err := checkAttempt(impl, test, models, opts, deadline)
	if err == nil || !degradable(err, opts) {
		return results, err
	}
	cause := err.Error()
	var be *sat.ErrBudget
	if errors.As(err, &be) {
		cause = be.Kind.String()
	}
	elapsed := time.Since(start)
	for i, m := range models {
		if results[i] != nil {
			continue
		}
		res := &Result{
			Impl: impl.Name, Test: test.Name, Model: m,
			Verdict: VerdictUnknown,
			Budget: &BudgetReport{
				Deadline:       opts.Deadline,
				ConflictBudget: opts.ConflictBudget,
				Cause:          cause,
				Elapsed:        elapsed,
			},
		}
		res.Stats.TotalTime = elapsed
		results[i] = res
	}
	return results, nil
}

// cancelled reports whether Options.cancel has been closed.
func (o Options) cancelled() bool {
	if o.cancel == nil {
		return false
	}
	select {
	case <-o.cancel:
		return true
	default:
		return false
	}
}

// degradable reports whether an attempt's error ends its undecided
// models in VerdictUnknown rather than an error: budget exhaustion or a
// solver-internal Unknown. External cancellation is never degradable —
// the caller asked the check to stop, and gets an error.
func degradable(err error, opts Options) bool {
	if opts.cancelled() {
		return false
	}
	return errors.Is(err, sat.ErrBudgetExhausted) || errors.Is(err, spec.ErrSolverUnknown)
}
