// Package spec implements observations, observation sets, the
// SAT-based specification mining loop, and the inclusion check of
// paper §3.2.
//
// An observation is the vector of argument and return values of the
// operations a test invokes. The observation set S(T,I) — all
// observations of serial executions — serves as the specification:
// the implementation satisfies it on model Y iff every Y-execution's
// observation is in S.
package spec

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"checkfence/internal/bitvec"
	"checkfence/internal/encode"
	"checkfence/internal/lsl"
)

// ErrSolverUnknown is wrapped by Mine and CheckInclusion when the SAT
// solver stops without a verdict (stopped or budget-exhausted).
var ErrSolverUnknown = errors.New("spec: solver stopped without a verdict")

// Entry identifies one observed value: a register of a thread
// (post-unrolling name) with a human-readable label such as "A" or
// "X.ret".
type Entry struct {
	Label  string
	Thread int
	Reg    lsl.Reg
}

// Observation is a vector of values, one per entry.
type Observation []lsl.Value

// Key renders a canonical string form.
func (o Observation) Key() string {
	parts := make([]string, len(o))
	for i, v := range o {
		parts[i] = v.String()
	}
	return strings.Join(parts, ",")
}

// Format renders the observation with labels for human consumption.
func (o Observation) Format(entries []Entry) string {
	parts := make([]string, len(o))
	for i, v := range o {
		label := fmt.Sprintf("v%d", i)
		if i < len(entries) {
			label = entries[i].Label
		}
		parts[i] = label + "=" + v.String()
	}
	return strings.Join(parts, " ")
}

// Set is an observation set.
type Set struct {
	m map[string]Observation
}

// NewSet returns an empty observation set.
func NewSet() *Set { return &Set{m: map[string]Observation{}} }

// Add inserts an observation, reporting whether it was new.
func (s *Set) Add(o Observation) bool {
	k := o.Key()
	if _, ok := s.m[k]; ok {
		return false
	}
	s.m[k] = o
	return true
}

// Has reports membership.
func (s *Set) Has(o Observation) bool {
	_, ok := s.m[o.Key()]
	return ok
}

// Len returns the number of distinct observations.
func (s *Set) Len() int { return len(s.m) }

// All returns the observations in deterministic (sorted key) order.
func (s *Set) All() []Observation {
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Observation, len(keys))
	for i, k := range keys {
		out[i] = s.m[k]
	}
	return out
}

// Equal reports whether two sets contain the same observations.
func (s *Set) Equal(other *Set) bool {
	if s.Len() != other.Len() {
		return false
	}
	for k := range s.m {
		if _, ok := other.m[k]; !ok {
			return false
		}
	}
	return true
}

// obsVals looks up the SymVals of the entries in an encoder.
func obsVals(e *encode.Encoder, entries []Entry) ([]encode.SymVal, error) {
	out := make([]encode.SymVal, len(entries))
	for i, ent := range entries {
		if ent.Thread >= len(e.Envs) {
			return nil, fmt.Errorf("spec: entry %q references thread %d of %d",
				ent.Label, ent.Thread, len(e.Envs))
		}
		sv, ok := e.Envs[ent.Thread][ent.Reg]
		if !ok {
			return nil, fmt.Errorf("spec: entry %q: register %s not assigned in thread %d",
				ent.Label, ent.Reg, ent.Thread)
		}
		out[i] = sv
	}
	return out, nil
}

// obsBits flattens the SymVals into the list of circuit nodes whose
// assignment determines the observation.
func obsBits(e *encode.Encoder, svs []encode.SymVal) []bitvec.Node {
	var bits []bitvec.Node
	for _, sv := range svs {
		bits = append(bits, sv.K1, sv.K0)
		for _, comp := range sv.Comps {
			bits = append(bits, comp...)
		}
	}
	return bits
}

// SeqBugError reports a runtime error reachable in a serial execution
// (a sequential bug found during mining).
type SeqBugError struct {
	Obs Observation
}

func (e *SeqBugError) Error() string {
	return "spec: serial execution reaches a runtime error (sequential bug)"
}

// MineStats reports mining work.
type MineStats struct {
	Iterations int
}

// Mine enumerates the observation set of the encoder's executions
// with the iterative blocking-clause procedure of §3.2. The encoder
// should be built for the Serial model with overflow excluded. Mining
// first checks that no serial execution reaches a runtime error; if
// one does, a SeqBugError is returned (a bug in the implementation
// itself, independent of the memory model).
func Mine(e *encode.Encoder, entries []Entry) (*Set, MineStats, error) {
	return MineWith(e, entries, Strategy{})
}

// Counterexample is a failed inclusion check: an execution whose
// observation is not in the specification, or which reaches a runtime
// error.
type Counterexample struct {
	Obs   Observation
	IsErr bool   // true if a runtime error occurred
	Err   string // first satisfied error condition message
}

// CheckInclusion performs the inclusion check of §3.2 on an encoder
// built for the model under test (with overflow excluded): it asks
// the SAT solver for an execution that reaches a runtime error or
// whose observation differs from every observation in the set. A nil
// result means the check passed. The encoder's solver state is left
// positioned at the counterexample model (for trace extraction).
func CheckInclusion(e *encode.Encoder, entries []Entry, set *Set) (*Counterexample, error) {
	return CheckInclusionWith(e, entries, set, Strategy{})
}

// assertNotObservation adds one clause stating that the observation
// vector differs from o in at least one bit.
func assertNotObservation(e *encode.Encoder, svs []encode.SymVal, o Observation) error {
	if len(o) != len(svs) {
		return fmt.Errorf("spec: observation arity %d != %d entries", len(o), len(svs))
	}
	var clause []bitvec.Node
	for i, v := range o {
		want := e.ConstVal(v)
		got := svs[i]
		pairs := [][2]bitvec.Node{{got.K1, want.K1}, {got.K0, want.K0}}
		for ci := range got.Comps {
			wbv := want.Comps[ci]
			for bi, gn := range got.Comps[ci] {
				pairs = append(pairs, [2]bitvec.Node{gn, wbv[bi]})
			}
		}
		for _, p := range pairs {
			gn, wn := p[0], p[1]
			switch wn {
			case bitvec.True:
				clause = append(clause, gn.Not())
			case bitvec.False:
				clause = append(clause, gn)
			default:
				return fmt.Errorf("spec: non-constant expected observation bit")
			}
		}
	}
	e.B.AssertOr(clause...)
	return nil
}
