package core

// This file implements the resource-governance layer of the driver:
// per-unit budgets (wall clock, conflicts, memory) and the
// degradation ladder that steps a failing unit — a single check or a
// sweep group — down through cheaper strategies, from a forced
// reads-from engine to SAT, then from the configured SAT solve to one
// without CNF preprocessing, before giving up with a structured
// VerdictUnknown.
// CheckFence's queries are worst-case intractable, so a production
// suite needs every check to terminate with *some* answer: a verdict
// when the budgets allow one, and an explanation when they do not.

import (
	"errors"
	"slices"
	"time"

	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
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
		cfg := opts.encodeConfig()
		cfg.Preprocess = false
		opts.Encode = &cfg
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

// checkModels is the degradation ladder, run over one unit of work:
// the given models (strongest first) of one implementation and test,
// under one absolute deadline opts.Deadline from now. Each rung makes
// one checkAttempt over the models still undecided; the models it
// decides keep their results, with a BudgetReport when a degraded rung
// decided them. A degradable failure sends only the rest to the next,
// cheaper rung; a non-degradable one is returned, with the decided
// models' results (nil elsewhere). Models no rung decides before the
// ladder or the deadline runs out become VerdictUnknown, each with the
// unit's BudgetReport. The returned slice parallels models.
func checkModels(impl *harness.Impl, test *harness.Test, models []memmodel.Model,
	opts Options) ([]*Result, error) {

	start := time.Now()
	var deadline time.Time
	if opts.Deadline > 0 {
		deadline = start.Add(opts.Deadline)
	}
	results := make([]*Result, len(models))
	pending := models // undecided, strongest first
	var reports []RungReport
	for r, rung := range opts.ladder() {
		if r > 0 && !deadline.IsZero() && !time.Now().Before(deadline) {
			break // no wall-clock left to retry with
		}
		attemptStart := time.Now()
		decided, err := checkAttempt(impl, test, pending, rung.apply(opts), deadline)
		var rest []memmodel.Model
		for k, res := range decided {
			if res == nil {
				rest = append(rest, pending[k])
				continue
			}
			if len(reports) > 0 {
				// The verdict came from a degraded rung; record the
				// path that led there.
				res.Budget = opts.budgetReport(reports)
			}
			results[slices.Index(models, res.Model)] = res
		}
		if err == nil {
			return results, nil
		}
		if !degradable(err, opts) {
			return results, err
		}
		reports = append(reports, rungReport(rung, err, time.Since(attemptStart)))
		pending = rest
	}
	for _, m := range pending {
		res := &Result{
			Impl: impl.Name, Test: test.Name, Model: m,
			Verdict: VerdictUnknown,
			Budget:  opts.budgetReport(reports),
		}
		res.Stats.TotalTime = time.Since(start)
		results[slices.Index(models, m)] = res
	}
	return results, nil
}

// ladder returns the degradation ladder: [rf →] configured → without
// CNF preprocessing. The no-preprocess rung is skipped when
// preprocessing is already off.
func (o Options) ladder() []Rung {
	var rungs []Rung
	satBackend := o.Backend
	if o.Backend == BackendRF {
		// A forced rf backend gets its own leading rung; exhaustion
		// (budget, inapplicability) degrades to the SAT rungs below —
		// never the reverse.
		rungs = append(rungs, Rung{Name: "rf", Backend: BackendRF})
		satBackend = BackendSAT
	}
	pre := o.encodeConfig().Preprocess
	rungs = append(rungs, Rung{Name: "configured", Backend: satBackend, NoPreprocess: !pre})
	if pre {
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
// the ladder: budget exhaustion or a solver-internal Unknown. External
// cancellation is never degradable — the caller asked the check to
// stop, not to try harder with less.
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
	return errors.Is(err, spec.ErrSolverUnknown)
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
