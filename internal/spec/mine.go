package spec

// This file implements specification mining (the blocking-clause
// enumeration of serial observations) and the strategy knobs shared by
// mining and the inclusion check. Every query runs on the encoder's
// own solver.

import (
	"errors"
	"fmt"

	"checkfence/internal/encode"
	"checkfence/internal/faultinject"
	"checkfence/internal/sat"
)

// DefaultMaxMineIterations bounds the mining enumeration when
// Strategy.MaxMineIterations is zero. The bound exists to turn an
// accidentally underconstrained test (e.g. an unconstrained input
// register leaking into the observation) into an error instead of an
// endless loop.
const DefaultMaxMineIterations = 100000

// ErrMineLimit is wrapped by mining when the enumeration exceeds the
// iteration limit.
var ErrMineLimit = errors.New("spec: mining exceeded iteration limit")

// blockShrink drops provably redundant literals from mining blocking
// clauses: bits whose SAT variable is fixed at the root (constants and
// learned units — identical in every remaining model) and duplicate
// variables (a variable's assignment determines every bit it backs).
// Shorter blocking clauses propagate earlier and cost less to watch;
// the mined set and iteration count are unchanged because each shrunk
// clause excludes exactly the same models as the full one. The toggle
// exists for the equivalence test.
var blockShrink = true

// Strategy configures mining and the inclusion check: iteration cap,
// checkpoint/resume, fault hooks and cube assumptions. The zero value
// behaves exactly like Mine/CheckInclusion.
type Strategy struct {
	// MaxMineIterations caps the mining enumeration (0 = default).
	MaxMineIterations int
	// Resume seeds the enumeration with a previously mined partial
	// set: its observations are excluded up front (the exclusion
	// clauses block every model of each observation, a superset of the
	// per-model blocking clauses the original run added) and included
	// in the result, so an interrupted mine continues instead of
	// restarting.
	Resume *Set
	// ResumeIterations is the iteration count already spent producing
	// Resume; the continued run's count and the iteration limit are
	// cumulative across it.
	ResumeIterations int
	// Checkpoint, when non-nil, is called with the partial set and the
	// cumulative iteration count every CheckpointEvery iterations, so
	// an interrupted mine can later resume. The callback must not
	// retain the set: mining keeps mutating it.
	Checkpoint func(partial *Set, iterations int)
	// CheckpointEvery is the iteration period between Checkpoint calls
	// (0 = 32).
	CheckpointEvery int
	// Faults, when non-nil, installs fault-injection hooks on the
	// mining path (see internal/faultinject).
	Faults faultinject.Faults
	// Assume restricts both phases of the inclusion check to the
	// executions satisfying these literals — one cube of a
	// cross-process cube-and-conquer fan-out. The literals must be
	// over variables that survive preprocessing (CheckFence passes
	// memory-order variables, which PreprocessCNF freezes). Mining
	// ignores the field: the specification is cube-independent.
	Assume []sat.Lit
}

func (st Strategy) maxIter() int {
	if st.MaxMineIterations > 0 {
		return st.MaxMineIterations
	}
	return DefaultMaxMineIterations
}

func (st Strategy) checkpointEvery() int {
	if st.CheckpointEvery > 0 {
		return st.CheckpointEvery
	}
	return 32
}

// unknownErr wraps a non-definitive solver status into the
// ErrSolverUnknown chain, preserving the typed *sat.ErrBudget cause
// when one is known so upstream layers can tell budget exhaustion from
// cancellation.
func unknownErr(phase string, st sat.Status, cause error) error {
	if cause != nil {
		return fmt.Errorf("%w during %s: %w", ErrSolverUnknown, phase, cause)
	}
	return fmt.Errorf("%w during %s (status %v)", ErrSolverUnknown, phase, st)
}

// decodeObs reads the observation vector from e.S's model.
func decodeObs(e *encode.Encoder, svs []encode.SymVal) Observation {
	obs := make(Observation, len(svs))
	for i, sv := range svs {
		obs[i] = e.EvalVal(sv)
	}
	return obs
}

// solveOne performs one single-verdict solve on the encoder's solver.
// On Sat the model is readable through e.S. On Unknown the second
// result carries the typed *sat.ErrBudget when a budget ran out, and
// nil for plain cancellation.
func solveOne(e *encode.Encoder, assumptions ...sat.Lit) (sat.Status, error) {
	st := e.S.Solve(assumptions...)
	if st == sat.Unknown {
		if be := e.S.BudgetErr(); be != nil {
			return st, be
		}
	}
	return st, nil
}

// MineWith is Mine under a strategy. When mining stops early
// (iteration limit, budget, cancellation), the partial set mined so
// far is returned alongside the error so callers can checkpoint and
// later resume it instead of discarding the work.
func MineWith(e *encode.Encoder, entries []Entry, strat Strategy) (*Set, MineStats, error) {
	if strat.Faults != nil && strat.Faults.Fire(faultinject.MinePanic) {
		panic(faultinject.Injected{Site: faultinject.MinePanic})
	}
	svs, err := obsVals(e, entries)
	if err != nil {
		return nil, MineStats{}, err
	}
	// Materialize every literal the incremental loop will reference —
	// the error literal (assumed, then asserted false) and the
	// observation bits (blocking clauses flip their signs per model) —
	// then preprocess the CNF with exactly those frozen.
	errLit := e.B.Lit(e.ErrorNode())
	bits := obsBits(e, svs)
	lits := make([]sat.Lit, len(bits))
	for i, b := range bits {
		lits[i] = e.B.Lit(b)
	}
	e.PreprocessCNF(append([]sat.Lit{errLit}, lits...)...)

	// Sequential bug check: is any erroneous serial execution
	// possible?
	switch st, cause := solveOne(e, errLit); st {
	case sat.Sat:
		return nil, MineStats{}, &SeqBugError{Obs: decodeObs(e, svs)}
	case sat.Unsat:
	default:
		return nil, MineStats{}, unknownErr("sequential bug check", st, cause)
	}

	// Enumerate error-free serial observations.
	e.S.AddClause(errLit.Not())
	// Start from everything a resumed checkpoint already established.
	// Each exclusion blocks all models of its observation — a superset
	// of the per-model blocking clauses a direct enumeration would have
	// added — so checkpoint ∪ continued enumeration is the full set.
	set := NewSet()
	if strat.Resume != nil {
		for _, o := range strat.Resume.All() {
			if err := assertNotObservation(e, svs, o); err != nil {
				return nil, MineStats{}, err
			}
			set.Add(o)
		}
	}

	// The classical blocking-clause enumeration.
	stats := MineStats{Iterations: strat.ResumeIterations}
	limit := strat.maxIter()
	every := strat.checkpointEvery()
	for {
		st, cause := solveOne(e)
		if st == sat.Unsat {
			return set, stats, nil
		}
		if st != sat.Sat {
			return set, stats, unknownErr("mining", st, cause)
		}
		stats.Iterations++
		set.Add(decodeObs(e, svs))
		// Block every assignment of the observation bits seen in this
		// model (not just this observation's canonical value): the
		// bits fully determine the observation.
		e.S.AddClause(blockingClause(e.S, lits)...)
		if strat.Checkpoint != nil && stats.Iterations%every == 0 {
			strat.Checkpoint(set, stats.Iterations)
		}
		if stats.Iterations > limit {
			return set, stats, fmt.Errorf("%w (%d iterations)", ErrMineLimit, stats.Iterations)
		}
	}
}

// blockingClause builds the clause excluding s's current assignment of
// the observation bits. With blockShrink, literals that cannot
// distinguish models are dropped: root-fixed variables (identical in
// every remaining model — covers constant bits, whose backing variable
// carries a unit clause) and repeated variables.
func blockingClause(s *sat.Solver, lits []sat.Lit) []sat.Lit {
	block := make([]sat.Lit, 0, len(lits))
	var seen map[int]bool
	if blockShrink {
		seen = make(map[int]bool, len(lits))
	}
	for _, l := range lits {
		if blockShrink {
			v := l.Var()
			if seen[v] || s.FixedAtRoot(v) {
				continue
			}
			seen[v] = true
		}
		if s.ValueLit(l) {
			block = append(block, l.Not())
		} else {
			block = append(block, l)
		}
	}
	return block
}

// CheckInclusionWith is CheckInclusion under a strategy: the
// one-model case of the SweepCheck protocol. On a counterexample the
// encoder's solver is positioned at its model.
func CheckInclusionWith(e *encode.Encoder, entries []Entry, set *Set, strat Strategy) (*Counterexample, error) {
	c, err := NewSweepCheck(e, entries)
	if err != nil {
		return nil, err
	}
	if cex, err := c.ErrorCheck(e.Model, strat); cex != nil || err != nil {
		return cex, err
	}
	if err := c.BeginInclusion(set); err != nil {
		return nil, err
	}
	return c.Inclusion(e.Model, strat)
}
