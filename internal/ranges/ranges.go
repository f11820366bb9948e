// Package ranges implements the light-weight flow-insensitive range
// analysis of paper §3.4. For each register and each memory location
// it computes a finite over-approximation of the values that can occur
// in a valid execution, and derives from it:
//
//  1. a bit width sufficient for all integer values,
//  2. a bound on pointer depth,
//  3. statically fixed bits of the representation, and
//  4. may-alias sets that prune the memory-model formula.
//
// Termination uses set-size capping: a set that grows past the cap
// becomes Top (unknown), which is sound (Top falls back to worst-case
// widths and all-pairs aliasing). This replaces the paper's
// traversal-count device with the same soundness guarantee.
package ranges

import (
	"slices"

	"checkfence/internal/lsl"
)

// Cap is the maximum tracked set size before a set widens to Top.
const Cap = 128

// ValueSet is a finite set of LSL values, or Top.
type ValueSet struct {
	Top    bool
	Values map[string]lsl.Value // keyed by rendered value
}

// NewValueSet returns an empty set.
func NewValueSet() *ValueSet {
	return &ValueSet{Values: map[string]lsl.Value{}}
}

func key(v lsl.Value) string { return v.String() }

// Add inserts a value, widening to Top past the cap. It reports
// whether the set changed.
func (s *ValueSet) Add(v lsl.Value) bool {
	if s.Top {
		return false
	}
	k := key(v)
	if _, ok := s.Values[k]; ok {
		return false
	}
	if len(s.Values) >= Cap {
		s.Top = true
		s.Values = nil
		return true
	}
	s.Values[k] = v
	return true
}

// AddAll unions other into s, reporting change.
func (s *ValueSet) AddAll(other *ValueSet) bool {
	if s.Top {
		return false
	}
	if other.Top {
		s.Top = true
		s.Values = nil
		return true
	}
	changed := false
	for _, v := range other.Values {
		if s.Add(v) {
			changed = true
		}
	}
	return changed
}

// Each visits the values (no-op for Top).
func (s *ValueSet) Each(f func(lsl.Value)) {
	for _, v := range s.Values {
		f(v)
	}
}

// Len returns the set size (0 for Top; check Top separately).
func (s *ValueSet) Len() int { return len(s.Values) }

// Info is the analysis result.
type Info struct {
	// Regs maps registers to their possible values.
	Regs map[lsl.Reg]*ValueSet
	// Locs maps memory locations to their possible stored values.
	Locs map[lsl.Loc]*ValueSet

	// IntWidth is a bit width (two's complement) sufficient for every
	// integer value and every pointer component (+1 encoding) that can
	// occur.
	IntWidth int
	// MaxPtrDepth is the deepest pointer component sequence seen.
	MaxPtrDepth int
	// Precise is false if any set widened to Top, in which case
	// IntWidth/alias information use worst-case defaults.
	Precise bool

	// aliasLocs holds, for every register whose set is known and holds
	// a pointer, the sorted locations of those pointers. A register
	// missing here may point anywhere (MayAlias).
	aliasLocs map[lsl.Reg][]lsl.Loc
}

// DefaultIntWidth is used when the analysis is disabled or imprecise.
const DefaultIntWidth = 9

// Analyze runs the analysis over unrolled, call-free bodies. The
// bodies of all threads (including initialization) must be passed
// together since they share memory.
func Analyze(bodies [][]lsl.Stmt) *Info {
	info := &Info{
		Regs:    map[lsl.Reg]*ValueSet{},
		Locs:    map[lsl.Loc]*ValueSet{},
		Precise: true,
	}
	reg := func(r lsl.Reg) *ValueSet {
		s, ok := info.Regs[r]
		if !ok {
			s = NewValueSet()
			info.Regs[r] = s
		}
		return s
	}
	loc := func(l lsl.Loc) *ValueSet {
		s, ok := info.Locs[l]
		if !ok {
			s = NewValueSet()
			info.Locs[l] = s
		}
		return s
	}

	// Propagate to fixpoint. The statement count bounds the chain
	// height; the cap bounds set growth, so this terminates.
	for {
		changed := false
		var walk func(stmts []lsl.Stmt)
		walk = func(stmts []lsl.Stmt) {
			for _, s := range stmts {
				switch s := s.(type) {
				case *lsl.ConstStmt:
					if reg(s.Dst).Add(s.Val) {
						changed = true
					}
				case *lsl.HavocStmt:
					for v := int64(0); v < 1<<uint(s.Bits); v++ {
						if reg(s.Dst).Add(lsl.Int(v)) {
							changed = true
						}
					}
				case *lsl.OpStmt:
					if applyOp(s, reg) {
						changed = true
					}
				case *lsl.StoreStmt:
					src := reg(s.Src)
					addrs := reg(s.Addr)
					if addrs.Top {
						// Unknown address: poison everything.
						for _, ls := range info.Locs {
							if ls.AddAll(src) {
								changed = true
							}
						}
						info.Precise = false
						continue
					}
					addrs.Each(func(a lsl.Value) {
						if a.Kind != lsl.KindPtr {
							return
						}
						if loc(lsl.LocOf(a)).AddAll(src) {
							changed = true
						}
					})
				case *lsl.LoadStmt:
					addrs := reg(s.Addr)
					dst := reg(s.Dst)
					if addrs.Top {
						if !dst.Top {
							dst.Top = true
							dst.Values = nil
							changed = true
						}
						continue
					}
					addrs.Each(func(a lsl.Value) {
						if a.Kind != lsl.KindPtr {
							return
						}
						if dst.AddAll(loc(lsl.LocOf(a))) {
							changed = true
						}
					})
					// A load may also observe the undefined initial
					// value.
					if dst.Add(lsl.Undef()) {
						changed = true
					}
				case *lsl.BlockStmt:
					walk(s.Body)
				case *lsl.AtomicStmt:
					walk(s.Body)
				}
			}
		}
		for _, b := range bodies {
			walk(b)
		}
		if !changed {
			break
		}
	}

	info.finalize()
	return info
}

// applyOp propagates values through a primitive operation.
func applyOp(s *lsl.OpStmt, reg func(lsl.Reg) *ValueSet) bool {
	dst := reg(s.Dst)
	if dst.Top {
		return false
	}
	arg := func(i int) *ValueSet { return reg(s.Args[i]) }

	switch s.Op {
	case lsl.OpIdent:
		return dst.AddAll(arg(0))
	case lsl.OpSelect:
		ch := dst.AddAll(arg(1))
		if dst.AddAll(arg(2)) {
			ch = true
		}
		return ch

	case lsl.OpBool, lsl.OpNot, lsl.OpEq, lsl.OpNe, lsl.OpLt, lsl.OpLe,
		lsl.OpGt, lsl.OpGe, lsl.OpAnd, lsl.OpOr:
		ch := dst.Add(lsl.Int(0))
		if dst.Add(lsl.Int(1)) {
			ch = true
		}
		return ch

	case lsl.OpField:
		a := arg(0)
		if a.Top {
			dst.Top = true
			dst.Values = nil
			return true
		}
		ch := false
		a.Each(func(v lsl.Value) {
			if v.Kind != lsl.KindPtr {
				return
			}
			if fv, err := v.Field(s.Imm); err == nil {
				if dst.Add(fv) {
					ch = true
				}
			}
		})
		return ch

	case lsl.OpIndex:
		a, idx := arg(0), arg(1)
		if a.Top || idx.Top {
			dst.Top = true
			dst.Values = nil
			return true
		}
		ch := false
		a.Each(func(v lsl.Value) {
			if v.Kind != lsl.KindPtr {
				return
			}
			idx.Each(func(iv lsl.Value) {
				if iv.Kind != lsl.KindInt {
					return
				}
				if fv, err := v.Field(iv.Int); err == nil {
					if dst.Add(fv) {
						ch = true
					}
				}
			})
		})
		return ch
	}

	// Binary integer arithmetic.
	apply := func(x, y int64) (int64, bool) {
		switch s.Op {
		case lsl.OpAdd:
			return x + y, true
		case lsl.OpSub:
			return x - y, true
		case lsl.OpMul:
			return x * y, true
		case lsl.OpXor:
			return x ^ y, true
		}
		return 0, false
	}
	if s.Op == lsl.OpNeg {
		a := arg(0)
		if a.Top {
			dst.Top = true
			dst.Values = nil
			return true
		}
		ch := false
		a.Each(func(v lsl.Value) {
			if v.Kind == lsl.KindInt && dst.Add(lsl.Int(-v.Int)) {
				ch = true
			}
		})
		return ch
	}
	a, b := arg(0), arg(1)
	if a.Top || b.Top {
		dst.Top = true
		dst.Values = nil
		return true
	}
	ch := false
	a.Each(func(x lsl.Value) {
		if x.Kind != lsl.KindInt {
			return
		}
		b.Each(func(y lsl.Value) {
			if y.Kind != lsl.KindInt {
				return
			}
			if r, ok := apply(x.Int, y.Int); ok {
				if dst.Add(lsl.Int(r)) {
					ch = true
				}
			}
		})
	})
	return ch
}

func (info *Info) finalize() {
	var maxAbs int64 = 1
	depth := 1
	scan := func(s *ValueSet) {
		if s.Top {
			info.Precise = false
			return
		}
		s.Each(func(v lsl.Value) {
			switch v.Kind {
			case lsl.KindInt:
				if v.Int > maxAbs {
					maxAbs = v.Int
				}
				if -v.Int > maxAbs {
					maxAbs = -v.Int
				}
			case lsl.KindPtr:
				if len(v.Ptr) > depth {
					depth = len(v.Ptr)
				}
				for _, c := range v.Ptr {
					// Components are stored shifted by one in the
					// encoding.
					if c+1 > maxAbs {
						maxAbs = c + 1
					}
				}
			}
		})
	}
	for _, s := range info.Regs {
		scan(s)
	}
	for _, s := range info.Locs {
		scan(s)
	}
	info.MaxPtrDepth = depth
	info.aliasLocs = make(map[lsl.Reg][]lsl.Loc, len(info.Regs))
	for r := range info.Regs {
		if addrs := info.AddrSet(r); addrs != nil {
			locs := make([]lsl.Loc, len(addrs))
			for i, a := range addrs {
				locs[i] = lsl.LocOf(a)
			}
			slices.Sort(locs)
			info.aliasLocs[r] = slices.Compact(locs)
		}
	}
	if info.Precise {
		// One extra bit for the sign in two's complement.
		w := 1
		for int64(1)<<uint(w) <= maxAbs {
			w++
		}
		info.IntWidth = w + 1
	} else {
		info.IntWidth = DefaultIntWidth
		info.MaxPtrDepth = lsl.MaxPtrDepth
	}
}

// AddrSet returns the possible addresses of an access through the
// given register, or nil when unknown (Top or absent).
func (info *Info) AddrSet(r lsl.Reg) []lsl.Value {
	s, ok := info.Regs[r]
	if !ok || s.Top {
		return nil
	}
	var out []lsl.Value
	s.Each(func(v lsl.Value) {
		if v.Kind == lsl.KindPtr {
			out = append(out, v)
		}
	})
	return out
}

// MayAlias reports whether two accesses may target the same location,
// based on their address registers. Unknown sets conservatively alias.
// It walks the two sorted location sets computed by the analysis and
// allocates nothing: the encoder asks it for every pair of accesses.
func (info *Info) MayAlias(a, b lsl.Reg) bool {
	la, oka := info.aliasLocs[a]
	lb, okb := info.aliasLocs[b]
	if !oka || !okb {
		return true
	}
	for i, j := 0, 0; i < len(la) && j < len(lb); {
		switch {
		case la[i] == lb[j]:
			return true
		case la[i] < lb[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Disabled returns an Info representing "analysis off": worst-case
// widths and universal aliasing, used for the Fig. 11c comparison.
func Disabled() *Info {
	return &Info{
		Regs:        map[lsl.Reg]*ValueSet{},
		Locs:        map[lsl.Loc]*ValueSet{},
		IntWidth:    DefaultIntWidth,
		MaxPtrDepth: lsl.MaxPtrDepth,
		Precise:     false,
	}
}
