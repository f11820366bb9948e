// Package lsl defines the load-store language (LSL), the untyped
// intermediate representation CheckFence compiles C code into before
// encoding executions as SAT formulas.
//
// LSL follows the abstract syntax of Fig. 4 of the PLDI'07 paper: a
// statement is a constant assignment, a primitive operation, a load or
// store, a memory ordering fence, an atomic block, a procedure call, a
// tagged block with conditional break/continue, or an assertion or
// assumption. Values (Fig. 5) are untyped at the language level but
// carry a runtime tag distinguishing undefined values, integers, and
// pointers represented as a base address followed by field/array
// offsets.
package lsl

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind is the runtime tag of an LSL value.
type Kind uint8

// The three runtime kinds of the untyped LSL value domain.
const (
	KindUndef Kind = iota // never assigned, or read from unwritten memory
	KindInt               // integer (also booleans: 0/1)
	KindPtr               // pointer: base address plus offset sequence
)

func (k Kind) String() string {
	switch k {
	case KindUndef:
		return "undef"
	case KindInt:
		return "int"
	case KindPtr:
		return "ptr"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// MaxPtrDepth bounds the length of a pointer component sequence
// (base + offsets). Struct/array nesting in the study set is shallow;
// the range analysis verifies the bound for each program.
const MaxPtrDepth = 4

// Value is an LSL runtime value. A pointer value [n1 n2 ... nk]
// consists of a base address n1 identifying a memory object and a
// sequence of field or array offsets, mirroring Fig. 5 of the paper.
// Keeping offsets separate from the base avoids arithmetic when
// encoding pointer operations.
type Value struct {
	Kind Kind
	Int  int64   // valid when Kind == KindInt
	Ptr  []int64 // valid when Kind == KindPtr; len >= 1, Ptr[0] is the base
}

// Undef is the undefined value.
func Undef() Value { return Value{Kind: KindUndef} }

// Int returns an integer value.
func Int(n int64) Value { return Value{Kind: KindInt, Int: n} }

// Bool returns the LSL encoding of a boolean (integers 0 and 1).
func Bool(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// Ptr returns a pointer value with the given base and offsets.
func Ptr(base int64, offsets ...int64) Value {
	comps := append([]int64{base}, offsets...)
	return Value{Kind: KindPtr, Ptr: comps}
}

// PtrFromComponents returns a pointer value from a complete component
// sequence (base followed by offsets). The slice is not copied.
func PtrFromComponents(comps []int64) Value {
	if len(comps) == 0 {
		panic("lsl: pointer value needs at least a base component")
	}
	return Value{Kind: KindPtr, Ptr: comps}
}

// IsDefined reports whether v is not the undefined value.
func (v Value) IsDefined() bool { return v.Kind != KindUndef }

// IsTruthy reports whether v is a defined value that C would treat as
// true in a condition. The second result is false when v is undefined,
// in which case branching on v is a runtime error that CheckFence
// reports.
func (v Value) IsTruthy() (truthy, ok bool) {
	switch v.Kind {
	case KindInt:
		return v.Int != 0, true
	case KindPtr:
		return true, true // pointer values are always non-null
	default:
		return false, false
	}
}

// Field returns v extended with one more offset component. It is the
// dynamic semantics of the OpField/OpIndex primitives.
func (v Value) Field(offset int64) (Value, error) {
	if v.Kind != KindPtr {
		return Undef(), fmt.Errorf("lsl: field access on non-pointer value %v", v)
	}
	if len(v.Ptr) >= MaxPtrDepth {
		return Undef(), fmt.Errorf("lsl: pointer depth exceeds MaxPtrDepth=%d", MaxPtrDepth)
	}
	comps := make([]int64, len(v.Ptr)+1)
	copy(comps, v.Ptr)
	comps[len(v.Ptr)] = offset
	return PtrFromComponents(comps), nil
}

// Equal reports value equality: kinds must match, integers compare by
// value, and pointers compare componentwise including depth. A pointer
// is never equal to an integer, so comparing a pointer against the
// null constant 0 is false exactly when the pointer is a real object
// reference.
func (v Value) Equal(w Value) bool {
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case KindUndef:
		return true
	case KindInt:
		return v.Int == w.Int
	case KindPtr:
		if len(v.Ptr) != len(w.Ptr) {
			return false
		}
		for i := range v.Ptr {
			if v.Ptr[i] != w.Ptr[i] {
				return false
			}
		}
		return true
	}
	return false
}

func (v Value) String() string {
	switch v.Kind {
	case KindUndef:
		return "undefined"
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindPtr:
		parts := make([]string, len(v.Ptr))
		for i, c := range v.Ptr {
			parts[i] = strconv.FormatInt(c, 10)
		}
		return "[ " + strings.Join(parts, " ") + " ]"
	default:
		return fmt.Sprintf("value(kind=%d)", v.Kind)
	}
}

// Loc identifies a concrete memory location: a pointer value used as an
// address. It is the map-key form of a pointer Value.
type Loc string

// LocOf converts a pointer value to a location key. It panics if v is
// not a pointer; callers check the kind first and report an error.
func LocOf(v Value) Loc {
	if v.Kind != KindPtr {
		panic("lsl: LocOf on non-pointer " + v.String())
	}
	var sb strings.Builder
	for i, c := range v.Ptr {
		if i > 0 {
			sb.WriteByte('.')
		}
		sb.WriteString(strconv.FormatInt(c, 10))
	}
	return Loc(sb.String())
}
