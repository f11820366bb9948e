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

// Strategy configures mining: iteration cap and fault hooks. The zero
// value behaves exactly like Mine. CheckInclusionWith takes a Strategy
// too but reads none of its fields.
type Strategy struct {
	// MaxMineIterations caps the mining enumeration (0 = default).
	MaxMineIterations int
	// Faults, when non-nil, installs fault-injection hooks on the
	// mining path (see internal/faultinject).
	Faults faultinject.Faults
}

func (st Strategy) maxIter() int {
	if st.MaxMineIterations > 0 {
		return st.MaxMineIterations
	}
	return DefaultMaxMineIterations
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
// (iteration limit, budget, cancellation), the set is nil and the
// error says why.
func MineWith(e *encode.Encoder, entries []Entry, strat Strategy) (*Set, MineStats, error) {
	if strat.Faults != nil && strat.Faults.Fire(faultinject.MinePanic) {
		panic(faultinject.Injected{Site: faultinject.MinePanic})
	}
	svs, err := obsVals(e, entries)
	if err != nil {
		return nil, MineStats{}, err
	}
	// Materialize every literal the incremental loop will reference:
	// the error literal (assumed, then asserted false) and the
	// observation bits (blocking clauses flip their signs per model).
	// The Serial formula is not preprocessed: its many short solves
	// gain less from preprocessing than the pass costs.
	errLit := e.B.Lit(e.ErrorNode())
	bits := obsBits(e, svs)
	lits := make([]sat.Lit, len(bits))
	for i, b := range bits {
		lits[i] = e.B.Lit(b)
	}

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

	// The classical blocking-clause enumeration.
	set := NewSet()
	var stats MineStats
	limit := strat.maxIter()
	for {
		st, cause := solveOne(e)
		if st == sat.Unsat {
			return set, stats, nil
		}
		if st != sat.Sat {
			return nil, stats, unknownErr("mining", st, cause)
		}
		stats.Iterations++
		set.Add(decodeObs(e, svs))
		// Block every assignment of the observation bits seen in this
		// model (not just this observation's canonical value): the
		// bits fully determine the observation.
		e.S.AddClause(blockingClause(e.S, lits)...)
		if stats.Iterations > limit {
			return nil, stats, fmt.Errorf("%w (%d iterations)", ErrMineLimit, stats.Iterations)
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

// CheckInclusionWith is the one-model case of SweepCheck. The
// inclusion check reads no Strategy field; the parameter keeps the
// signature parallel to MineWith. On a counterexample the encoder's
// solver is positioned at its model.
func CheckInclusionWith(e *encode.Encoder, entries []Entry, set *Set, _ Strategy) (*Counterexample, error) {
	c, err := NewSweepCheck(e, entries, set)
	if err != nil {
		return nil, err
	}
	return c.Check(e.Model)
}
