package spec

// This file drives the two-phase inclusion check of §3.2 over one
// encoding: a single-model encoder (CheckInclusionWith is exactly that
// case) or a selector-guarded model sweep (encode.NewSweepWithConfig)
// solved once per model under assumption literals, so the circuit, the
// CNF translation, the preprocessing pass, and every clause the solver
// learns are shared by the whole sweep instead of rebuilt per model.
//
// The protocol's one load-bearing rule: ALL phase-1 (error) solves
// must complete before ANY phase-2 exclusion clause is added. Phase 1
// asks "is an erroneous execution reachable" — an erroneous execution
// may well produce an in-spec observation, so the exclusion clauses
// would wrongly mask it. SweepCheck makes the ordering an explicit
// two-stage protocol: ErrorCheck per model, then one BeginInclusion,
// then Inclusion per model.

import (
	"fmt"

	"checkfence/internal/encode"
	"checkfence/internal/memmodel"
	"checkfence/internal/sat"
)

// SweepCheck runs the per-model phases of an inclusion check over an
// encoder — one model's, or a sweep's. The protocol is: NewSweepCheck,
// ErrorCheck for every model of interest, BeginInclusion once,
// Inclusion for every model still undecided. Learned clauses accumulate in the shared solver
// across all calls — everything learned refuting one model's query is
// implied by the common formula and so stays sound for the next.
type SweepCheck struct {
	e      *encode.Encoder
	svs    []encode.SymVal
	errLit sat.Lit
	began  bool
}

// NewSweepCheck materializes the error literal and observation bits of
// an encoder and arms CNF preprocessing with them frozen (phase 2's
// exclusion clauses reference the bits in both polarities; a sweep's
// selector variables are frozen by the encoder): the pass runs inside
// a later solve, and only once the check's search has passed a fixed
// number of conflicts (encode.Encoder.PreprocessCNF). The encoder must
// have overflow excluded.
func NewSweepCheck(e *encode.Encoder, entries []Entry) (*SweepCheck, error) {
	svs, err := obsVals(e, entries)
	if err != nil {
		return nil, err
	}
	errLit := e.B.Lit(e.ErrorNode())
	roots := []sat.Lit{errLit}
	for _, b := range obsBits(e, svs) {
		roots = append(roots, e.B.Lit(b))
	}
	e.PreprocessCNF(roots...)
	return &SweepCheck{e: e, svs: svs, errLit: errLit}, nil
}

// Encoder returns the underlying sweep encoder (for trace extraction
// after a Sat verdict).
func (c *SweepCheck) Encoder() *encode.Encoder { return c.e }

// ErrorCheck runs phase 1 for one model: is an execution reaching a
// runtime error possible under m's axioms? A non-nil counterexample
// (IsErr=true) leaves the solver positioned at its model for trace
// extraction. Panics if called after BeginInclusion —
// the error literal is permanently false by then, so the answer would
// be a silent, unsound Unsat.
func (c *SweepCheck) ErrorCheck(m memmodel.Model) (*Counterexample, error) {
	if c.began {
		panic("spec: SweepCheck.ErrorCheck after BeginInclusion")
	}
	switch st, cause := solveOne(c.e, append(c.e.SelectorLits(m), c.errLit)...); st {
	case sat.Sat:
		obs := decodeObs(c.e, c.svs)
		msg := ""
		for _, ec := range c.e.Errors {
			if c.e.B.Eval(ec.Cond) {
				msg = ec.Msg
				break
			}
		}
		return &Counterexample{Obs: obs, IsErr: true, Err: msg}, nil
	case sat.Unsat:
		return nil, nil
	default:
		return nil, unknownErr("error check", st, cause)
	}
}

// BeginInclusion transitions the shared solver to phase 2: the error
// literal is asserted false and the specification's observations are
// excluded, permanently, for every subsequent Inclusion call. The
// exclusion clauses are model-independent (they talk only about the
// observation bits), so adding them once is exactly what every
// single-model check would have added individually.
func (c *SweepCheck) BeginInclusion(set *Set) error {
	if c.began {
		return fmt.Errorf("spec: SweepCheck.BeginInclusion called twice")
	}
	c.began = true
	c.e.S.AddClause(c.errLit.Not())
	for _, o := range set.All() {
		if err := assertNotObservation(c.e, c.svs, o); err != nil {
			return err
		}
	}
	return nil
}

// Inclusion runs phase 2 for one model: is an error-free
// execution with an out-of-spec observation possible under m's axioms?
// A nil counterexample means model m passes the inclusion check. On
// Sat the solver is positioned at the counterexample model.
func (c *SweepCheck) Inclusion(m memmodel.Model) (*Counterexample, error) {
	if !c.began {
		panic("spec: SweepCheck.Inclusion before BeginInclusion")
	}
	switch st, cause := solveOne(c.e, c.e.SelectorLits(m)...); st {
	case sat.Unsat:
		return nil, nil
	case sat.Sat:
		return &Counterexample{Obs: decodeObs(c.e, c.svs)}, nil
	default:
		return nil, unknownErr("inclusion check", st, cause)
	}
}
