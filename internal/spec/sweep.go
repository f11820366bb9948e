package spec

// This file drives the inclusion check of §3.2 over one encoding: a
// single-model encoder (CheckInclusionWith is exactly that case) or a
// selector-guarded model sweep (encode.NewSweepWithConfig) solved once
// per model under assumption literals, so the circuit, the CNF
// translation, the preprocessing pass, and every clause the solver
// learns are shared by the whole sweep instead of rebuilt per model.
//
// Each model gets one query, as the paper states it: is there an
// execution that reaches a runtime error or whose observation is not
// in the set? Every exclusion clause carries the error literal as one
// more disjunct, err ∨ obs ≠ o, so an erroneous execution satisfies
// all of them whatever its observation, and an error-free one only
// when its observation is outside the set. The clauses are
// model-independent, so they are added once, with the formula, and
// every model's solve reads them.

import (
	"checkfence/internal/encode"
	"checkfence/internal/memmodel"
	"checkfence/internal/sat"
)

// SweepCheck runs the inclusion check of an encoder — one model's, or
// a sweep's — against one observation set: NewSweepCheck, then Check
// for every model of interest. Learned clauses accumulate in the
// shared solver across calls — everything learned refuting one model's
// query is implied by the common formula and so stays sound for the
// next.
type SweepCheck struct {
	e   *encode.Encoder
	svs []encode.SymVal
}

// NewSweepCheck materializes the error literal and observation bits of
// an encoder, arms CNF preprocessing with them frozen (the exclusion
// clauses reference the bits in both polarities; a sweep's selector
// variables are frozen by the encoder), and adds one guarded exclusion
// clause per observation of set. The pass runs inside a later solve,
// and only once the check's search has passed a fixed number of
// conflicts (encode.Encoder.PreprocessCNF). The encoder must have
// overflow excluded.
//
// The error literal is materialized in both polarities, so a model in
// which it is false satisfies no error condition: a counterexample
// without IsErr is an error-free execution.
func NewSweepCheck(e *encode.Encoder, entries []Entry, set *Set) (*SweepCheck, error) {
	svs, err := obsVals(e, entries)
	if err != nil {
		return nil, err
	}
	errNode := e.ErrorNode()
	roots := []sat.Lit{e.B.Lit(errNode)}
	for _, b := range obsBits(e, svs) {
		roots = append(roots, e.B.Lit(b))
	}
	e.PreprocessCNF(roots...)
	for _, o := range set.All() {
		if err := assertNotObservation(e, svs, errNode, o); err != nil {
			return nil, err
		}
	}
	return &SweepCheck{e: e, svs: svs}, nil
}

// Encoder returns the underlying sweep encoder (for trace extraction
// after a Sat verdict).
func (c *SweepCheck) Encoder() *encode.Encoder { return c.e }

// Check decides model m: is an execution possible under m's axioms
// that reaches a runtime error or whose observation is outside the
// set? A nil counterexample means m passes. On Sat the solver is
// positioned at the counterexample model; the counterexample has IsErr
// when an error condition holds there, and Err is the message of the
// first one.
func (c *SweepCheck) Check(m memmodel.Model) (*Counterexample, error) {
	switch st, cause := solveOne(c.e, c.e.SelectorLits(m)...); st {
	case sat.Unsat:
		return nil, nil
	case sat.Sat:
		cex := &Counterexample{Obs: decodeObs(c.e, c.svs)}
		for _, ec := range c.e.Errors {
			if c.e.B.Eval(ec.Cond) {
				cex.IsErr, cex.Err = true, ec.Msg
				break
			}
		}
		return cex, nil
	default:
		return nil, unknownErr("inclusion check", st, cause)
	}
}
