// Package encode builds the propositional formula Φ(T,I,Y) whose
// solutions are exactly the executions of an unrolled test program on
// memory model Y (paper §3.2). It combines
//
//   - the thread-local formulas Δ (CBMC-style symbolic compilation of
//     each thread into circuits over SSA values), and
//   - the memory model formula Θ (the axioms of §2.3.2 over a total
//     memory order <M represented by one boolean per access pair,
//     kept transitive by the solver's order theory in place of the
//     paper's transitivity clauses, and Init/Flows auxiliary
//     variables for the load value axioms).
package encode

import (
	"fmt"

	"checkfence/internal/bitvec"
	"checkfence/internal/lsl"
)

// SymVal is the circuit representation of an LSL value: a 2-bit kind
// tag and D components of width W.
//
// Encoding invariants:
//   - undefined: kind=00, all components zero
//   - integer:   kind=01, Comps[0] holds the two's complement value,
//     Comps[1..] are zero
//   - pointer:   kind=10, Comps[i] holds component_i + 1 for i < depth
//     and zero beyond, so the first zero component marks the pointer
//     depth and equality is plain componentwise comparison
type SymVal struct {
	K1, K0 bitvec.Node // kind bits (K1 K0): 00 undef, 01 int, 10 ptr
	Comps  []bitvec.BV
}

// IsUndef returns the node "v is the undefined value".
func (e *Encoder) IsUndef(v SymVal) bitvec.Node {
	return e.B.And(v.K1.Not(), v.K0.Not())
}

// IsInt returns the node "v is an integer".
func (e *Encoder) IsInt(v SymVal) bitvec.Node {
	return e.B.And(v.K1.Not(), v.K0)
}

// IsPtr returns the node "v is a pointer".
func (e *Encoder) IsPtr(v SymVal) bitvec.Node {
	return e.B.And(v.K1, v.K0.Not())
}

// ConstVal builds the circuit constant for an LSL value.
func (e *Encoder) ConstVal(v lsl.Value) SymVal {
	out := SymVal{K1: bitvec.False, K0: bitvec.False, Comps: make([]bitvec.BV, e.D)}
	for i := range out.Comps {
		out.Comps[i] = bitvec.ConstBV(e.W, 0)
	}
	switch v.Kind {
	case lsl.KindInt:
		out.K0 = bitvec.True
		out.Comps[0] = bitvec.ConstBV(e.W, v.Int)
	case lsl.KindPtr:
		out.K1 = bitvec.True
		for i, c := range v.Ptr {
			if i >= e.D {
				panic(fmt.Sprintf("encode: pointer %v exceeds depth bound %d", v, e.D))
			}
			out.Comps[i] = bitvec.ConstBV(e.W, c+1)
		}
	}
	return out
}

// UndefVal is the undefined constant.
func (e *Encoder) UndefVal() SymVal { return e.ConstVal(lsl.Undef()) }

// FreshVal allocates an unconstrained value (used for load results;
// the memory model axioms pin it to a stored value or undefined).
func (e *Encoder) FreshVal() SymVal {
	out := SymVal{K1: e.B.Var(), K0: e.B.Var(), Comps: make([]bitvec.BV, e.D)}
	for i := range out.Comps {
		out.Comps[i] = e.B.VarBV(e.W)
	}
	return out
}

// IntVal wraps an integer bitvector as a value.
func (e *Encoder) IntVal(bv bitvec.BV) SymVal {
	out := SymVal{K1: bitvec.False, K0: bitvec.True, Comps: make([]bitvec.BV, e.D)}
	out.Comps[0] = bv.Extend(e.W)
	for i := 1; i < e.D; i++ {
		out.Comps[i] = bitvec.ConstBV(e.W, 0)
	}
	return out
}

// BoolVal wraps a boolean node as the integer 0/1.
func (e *Encoder) BoolVal(n bitvec.Node) SymVal {
	bv := make(bitvec.BV, 1)
	bv[0] = n
	return e.IntVal(bv)
}

// EqVal returns the node "a equals b" under LSL equality: kinds,
// depths, and components all match. The encoding invariants make this
// a flat componentwise comparison.
func (e *Encoder) EqVal(a, b SymVal) bitvec.Node {
	acc := e.B.And(e.B.Iff(a.K1, b.K1), e.B.Iff(a.K0, b.K0))
	for i := 0; i < e.D; i++ {
		acc = e.B.And(acc, e.B.EqBV(a.Comps[i], b.Comps[i]))
	}
	return acc
}

// Truthy returns the node "a is a defined value C considers true":
// any pointer, or a non-zero integer. Undefined values are not truthy;
// callers emit a separate error for branching on them.
func (e *Encoder) Truthy(a SymVal) bitvec.Node {
	nonzero := e.B.IsZero(a.Comps[0]).Not()
	return e.B.Or(e.IsPtr(a), e.B.And(e.IsInt(a), nonzero))
}

// MuxVal returns c ? a : b.
func (e *Encoder) MuxVal(c bitvec.Node, a, b SymVal) SymVal {
	out := SymVal{
		K1:    e.B.Ite(c, a.K1, b.K1),
		K0:    e.B.Ite(c, a.K0, b.K0),
		Comps: make([]bitvec.BV, e.D),
	}
	for i := 0; i < e.D; i++ {
		out.Comps[i] = e.B.MuxBV(c, a.Comps[i], b.Comps[i])
	}
	return out
}

// AppendComp returns the pointer a extended with one more component
// whose (unshifted) value is given by comp; the append position is the
// first zero component. invalid reports structural failure: a is not
// a pointer or is already at maximum depth.
func (e *Encoder) AppendComp(a SymVal, comp bitvec.BV) (out SymVal, invalid bitvec.Node) {
	shifted := e.B.AddBV(comp.Extend(e.W), bitvec.ConstBV(e.W, 1))
	out = SymVal{K1: a.K1, K0: a.K0, Comps: make([]bitvec.BV, e.D)}
	out.Comps[0] = a.Comps[0]
	prevNonzero := e.B.IsZero(a.Comps[0]).Not()
	for k := 1; k < e.D; k++ {
		here := e.B.And(e.B.IsZero(a.Comps[k]), prevNonzero)
		out.Comps[k] = e.B.MuxBV(here, shifted, a.Comps[k])
		prevNonzero = e.B.IsZero(a.Comps[k]).Not()
	}
	full := e.B.IsZero(a.Comps[e.D-1]).Not()
	invalid = e.B.Or(e.IsPtr(a).Not(), full)
	return out, invalid
}

// EvalVal decodes a SymVal under the current SAT model.
func (e *Encoder) EvalVal(v SymVal) lsl.Value {
	k1, k0 := e.B.Eval(v.K1), e.B.Eval(v.K0)
	switch {
	case !k1 && !k0:
		return lsl.Undef()
	case !k1 && k0:
		raw := e.B.EvalBV(v.Comps[0])
		// Sign-extend from width W.
		if raw&(1<<uint(e.W-1)) != 0 {
			raw -= 1 << uint(e.W)
		}
		return lsl.Int(raw)
	case k1 && !k0:
		var comps []int64
		for i := 0; i < e.D; i++ {
			c := e.B.EvalBV(v.Comps[i])
			if c == 0 {
				break
			}
			comps = append(comps, c-1)
		}
		if len(comps) == 0 {
			comps = []int64{0} // malformed; decode defensively
		}
		return lsl.PtrFromComponents(comps)
	default:
		return lsl.Undef() // unreachable kind 11 on well-formed values
	}
}
