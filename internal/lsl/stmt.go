package lsl

import "fmt"

// Reg names a virtual register. Registers are single-assignment only
// after the encoder's symbolic compilation; at the LSL level they are
// ordinary mutable locals.
type Reg string

// Op is a primitive operation code.
type Op uint8

// Primitive operations. Arithmetic and logic operate on integers;
// OpField and OpIndex extend pointer component sequences; OpEq/OpNe
// compare any two values (cross-kind comparisons are false, matching
// null-pointer tests against the integer 0).
const (
	OpNone Op = iota
	OpAdd
	OpSub
	OpMul
	OpNeg
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpNot    // logical negation
	OpBool   // normalize to 0/1 (C truth test)
	OpAnd    // bitwise/logical and of already-normalized booleans
	OpOr     // bitwise/logical or of already-normalized booleans
	OpXor    // bitwise xor
	OpField  // args[0] must be a pointer; Imm is the offset appended
	OpIndex  // args[0] pointer, args[1] integer index appended
	OpIdent  // copy
	OpSelect // args[0] condition, args[1] then-value, args[2] else-value
)

var opNames = map[Op]string{
	OpNone: "none", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpNeg: "neg",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpNot: "not", OpBool: "bool", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpField: "field", OpIndex: "index", OpIdent: "ident", OpSelect: "select",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// FenceKind identifies one of the four memory ordering fences of the
// SPARC RMO style used by the paper: an X-Y fence orders all accesses
// of type X preceding it before all accesses of type Y following it.
type FenceKind uint8

const (
	FenceLoadLoad FenceKind = iota
	FenceLoadStore
	FenceStoreLoad
	FenceStoreStore
	numFenceKinds
)

// NumFenceKinds is the number of distinct fence kinds.
const NumFenceKinds = int(numFenceKinds)

func (k FenceKind) String() string {
	switch k {
	case FenceLoadLoad:
		return "load-load"
	case FenceLoadStore:
		return "load-store"
	case FenceStoreLoad:
		return "store-load"
	case FenceStoreStore:
		return "store-store"
	default:
		return fmt.Sprintf("FenceKind(%d)", uint8(k))
	}
}

// ParseFenceKind parses the string names used in C source
// (fence("load-load") etc.).
func ParseFenceKind(s string) (FenceKind, error) {
	switch s {
	case "load-load":
		return FenceLoadLoad, nil
	case "load-store":
		return FenceLoadStore, nil
	case "store-load":
		return FenceStoreLoad, nil
	case "store-store":
		return FenceStoreStore, nil
	}
	return 0, fmt.Errorf("lsl: unknown fence kind %q", s)
}

// OrdersBefore reports whether the fence orders an access of kind
// isLoadBefore (true: load, false: store) occurring before it.
func (k FenceKind) OrdersBefore(isLoad bool) bool {
	switch k {
	case FenceLoadLoad, FenceLoadStore:
		return isLoad
	default:
		return !isLoad
	}
}

// OrdersAfter reports whether the fence orders an access of kind
// isLoadAfter occurring after it.
func (k FenceKind) OrdersAfter(isLoad bool) bool {
	switch k {
	case FenceLoadLoad, FenceStoreLoad:
		return isLoad
	default:
		return !isLoad
	}
}

// LoopClass describes how the unroller treats a loop block.
type LoopClass uint8

const (
	// NotLoop marks plain tagged blocks (no back edge).
	NotLoop LoopClass = iota
	// BoundedLoop is unrolled lazily: an overflow probe decides whether
	// the current bound suffices (paper §3.3).
	BoundedLoop
	// SpinLoop is a side-effect-free retry loop (e.g. lock acquisition);
	// the paper's spin reduction restricts it to one visible iteration
	// with an assumption that it exits.
	SpinLoop
)

func (c LoopClass) String() string {
	switch c {
	case NotLoop:
		return "block"
	case BoundedLoop:
		return "loop"
	case SpinLoop:
		return "spin"
	default:
		return fmt.Sprintf("LoopClass(%d)", uint8(c))
	}
}

// Stmt is an LSL statement (paper Fig. 4).
type Stmt interface {
	isStmt()
	String() string
}

// ConstStmt assigns a constant value: r = v.
type ConstStmt struct {
	Dst Reg
	Val Value
}

// OpStmt applies a primitive operation: r = f(args). Imm carries the
// static offset for OpField.
type OpStmt struct {
	Dst  Reg
	Op   Op
	Args []Reg
	Imm  int64
}

// StoreStmt writes memory: *addr = src.
type StoreStmt struct {
	Addr Reg
	Src  Reg
}

// LoadStmt reads memory: dst = *addr.
type LoadStmt struct {
	Dst  Reg
	Addr Reg
}

// FenceStmt is a memory ordering fence.
type FenceStmt struct {
	Kind FenceKind
}

// AtomicStmt executes its body atomically: in program order and never
// interleaved with other threads (paper Fig. 6: CAS is modeled this
// way).
type AtomicStmt struct {
	Body []Stmt
}

// CallStmt invokes a procedure: rets = p(args). NoRetry marks the
// primed operation forms of the paper's Fig. 8 tests: all loops inside
// the call are restricted to a single iteration with an assumption
// that they exit.
type CallStmt struct {
	Proc    string
	Args    []Reg
	Rets    []Reg
	NoRetry bool
}

// BlockStmt is a tagged block. A break exits it; a continue (legal only
// when Loop != NotLoop) repeats it. Execution falls out of the block
// after the last statement.
type BlockStmt struct {
	Tag  string
	Loop LoopClass
	Body []Stmt
}

// BreakStmt conditionally exits the enclosing block with the matching
// tag: if (cond) break tag.
type BreakStmt struct {
	Cond Reg
	Tag  string
}

// ContinueStmt conditionally repeats the enclosing loop block with the
// matching tag: if (cond) continue tag.
type ContinueStmt struct {
	Cond Reg
	Tag  string
}

// AssertStmt checks a condition; a violated (or undefined) condition is
// a bug the checker reports.
type AssertStmt struct {
	Cond Reg
	Msg  string
}

// AssumeStmt restricts attention to executions satisfying the
// condition.
type AssumeStmt struct {
	Cond Reg
}

// HavocStmt assigns a nondeterministic integer of the given bit width.
// Test programs use it for unspecified operation arguments.
type HavocStmt struct {
	Dst  Reg
	Bits int
}

// AllocStmt models new_node(): it yields a pointer to a fresh memory
// object whose fields are initially undefined. Site labels the
// allocation for traces; the unroller assigns each dynamic instance a
// distinct base address.
type AllocStmt struct {
	Dst  Reg
	Site string
}

// OverflowStmt is inserted by the unroller at the point where a loop's
// unrolling bound is exhausted. LoopID identifies the loop instance so
// the lazy-bounds procedure can grow the right bound.
type OverflowStmt struct {
	LoopID int
}

func (*ConstStmt) isStmt()    {}
func (*OpStmt) isStmt()       {}
func (*StoreStmt) isStmt()    {}
func (*LoadStmt) isStmt()     {}
func (*FenceStmt) isStmt()    {}
func (*AtomicStmt) isStmt()   {}
func (*CallStmt) isStmt()     {}
func (*BlockStmt) isStmt()    {}
func (*BreakStmt) isStmt()    {}
func (*ContinueStmt) isStmt() {}
func (*AssertStmt) isStmt()   {}
func (*AssumeStmt) isStmt()   {}
func (*HavocStmt) isStmt()    {}
func (*AllocStmt) isStmt()    {}
func (*OverflowStmt) isStmt() {}

// Proc is an LSL procedure.
type Proc struct {
	Name    string
	Params  []Reg
	Results []Reg
	Body    []Stmt
}

// Global describes a named global memory object. Base is its assigned
// base address component; Size is the number of top-level slots (1 for
// scalars, field count for structs, element count for arrays).
type Global struct {
	Name string
	Base int64
	Size int
}

// Program is a collection of procedures and global objects sharing one
// address space.
type Program struct {
	Procs   map[string]*Proc
	Globals []Global

	// NextBase is the first unused base address; the unroller draws
	// fresh bases for allocation instances from here.
	NextBase int64
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{Procs: make(map[string]*Proc)}
}

// AddGlobal registers a global object and returns it.
func (p *Program) AddGlobal(name string, size int) Global {
	g := Global{Name: name, Base: p.NextBase, Size: size}
	p.Globals = append(p.Globals, g)
	p.NextBase++
	return g
}

// GlobalByName looks up a global by name.
func (p *Program) GlobalByName(name string) (Global, bool) {
	for _, g := range p.Globals {
		if g.Name == name {
			return g, true
		}
	}
	return Global{}, false
}

// AddProc registers a procedure, replacing any previous definition of
// the same name.
func (p *Program) AddProc(proc *Proc) { p.Procs[proc.Name] = proc }
