package ranges

import (
	"testing"
	"testing/quick"

	"checkfence/internal/interp"
	"checkfence/internal/lsl"
)

func TestValueSetBasics(t *testing.T) {
	s := NewValueSet()
	if !s.Add(lsl.Int(1)) || s.Add(lsl.Int(1)) {
		t.Error("Add must report novelty")
	}
	if !s.Add(lsl.Ptr(1)) {
		t.Error("pointer [1] must be distinct from integer 1")
	}
	if s.Len() != 2 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestValueSetCapWidensToTop(t *testing.T) {
	s := NewValueSet()
	for i := int64(0); i < Cap+10; i++ {
		s.Add(lsl.Int(i))
	}
	if !s.Top {
		t.Error("set must widen to Top past the cap")
	}
	if s.Add(lsl.Int(999)) {
		t.Error("Top set must absorb values silently")
	}
}

func TestAnalyzeStraightLine(t *testing.T) {
	body := []lsl.Stmt{
		&lsl.ConstStmt{Dst: "a", Val: lsl.Int(3)},
		&lsl.ConstStmt{Dst: "b", Val: lsl.Int(4)},
		&lsl.OpStmt{Dst: "c", Op: lsl.OpAdd, Args: []lsl.Reg{"a", "b"}},
		&lsl.ConstStmt{Dst: "p", Val: lsl.Ptr(0)},
		&lsl.StoreStmt{Addr: "p", Src: "c"},
		&lsl.LoadStmt{Dst: "d", Addr: "p"},
	}
	info := Analyze([][]lsl.Stmt{body})
	if !info.Precise {
		t.Fatal("analysis must stay precise")
	}
	cSet := info.Regs["c"]
	if cSet.Len() != 1 {
		t.Errorf("c has %d values", cSet.Len())
	}
	// d may read the stored 7 or the undefined initial value.
	dSet := info.Regs["d"]
	if dSet.Len() != 2 {
		t.Errorf("d has %d values, want {7, undefined}", dSet.Len())
	}
	// IntWidth must cover 7 plus a sign bit.
	if info.IntWidth < 4 {
		t.Errorf("IntWidth = %d", info.IntWidth)
	}
}

func TestAnalyzeAliasPruning(t *testing.T) {
	body := []lsl.Stmt{
		&lsl.ConstStmt{Dst: "p", Val: lsl.Ptr(0)},
		&lsl.ConstStmt{Dst: "q", Val: lsl.Ptr(1)},
		&lsl.ConstStmt{Dst: "v", Val: lsl.Int(1)},
		&lsl.StoreStmt{Addr: "p", Src: "v"},
		&lsl.StoreStmt{Addr: "q", Src: "v"},
	}
	info := Analyze([][]lsl.Stmt{body})
	if info.MayAlias("p", "q") {
		t.Error("distinct constant addresses must not alias")
	}
	if !info.MayAlias("p", "p") {
		t.Error("identical registers must alias")
	}
	if !info.MayAlias("p", "unknown") {
		t.Error("unknown registers must conservatively alias")
	}
}

// TestMayAliasPrecomputed: MayAlias answers from the location sets the
// analysis computed once, as the pairwise set intersection of AddrSet
// would, and allocates nothing per call — the encoder asks it for
// every pair of accesses of every formula.
func TestMayAliasPrecomputed(t *testing.T) {
	body := []lsl.Stmt{
		&lsl.HavocStmt{Dst: "h", Bits: 1},
		&lsl.ConstStmt{Dst: "p0", Val: lsl.Ptr(0)},
		&lsl.ConstStmt{Dst: "p1", Val: lsl.Ptr(1)},
		&lsl.ConstStmt{Dst: "p2", Val: lsl.Ptr(2, 1)},
		&lsl.ConstStmt{Dst: "n", Val: lsl.Int(3)},
		&lsl.OpStmt{Dst: "s01", Op: lsl.OpSelect, Args: []lsl.Reg{"h", "p0", "p1"}},
		&lsl.OpStmt{Dst: "s12", Op: lsl.OpSelect, Args: []lsl.Reg{"h", "p1", "p2"}},
		&lsl.OpStmt{Dst: "s2n", Op: lsl.OpSelect, Args: []lsl.Reg{"h", "p2", "n"}},
		&lsl.LoadStmt{Dst: "top", Addr: "unknown"},
		&lsl.StoreStmt{Addr: "s01", Src: "n"},
	}
	info := Analyze([][]lsl.Stmt{body})
	info.Regs["unknown"] = &ValueSet{Top: true}
	info.finalize()
	// The reference: MayAlias as the pairwise intersection of AddrSet.
	want := func(a, b lsl.Reg) bool {
		sa, sb := info.AddrSet(a), info.AddrSet(b)
		if sa == nil || sb == nil {
			return true
		}
		for _, x := range sa {
			for _, y := range sb {
				if lsl.LocOf(x) == lsl.LocOf(y) {
					return true
				}
			}
		}
		return false
	}
	regs := []lsl.Reg{"p0", "p1", "p2", "n", "s01", "s12", "s2n", "unknown", "absent"}
	for _, a := range regs {
		for _, b := range regs {
			if got := info.MayAlias(a, b); got != want(a, b) {
				t.Errorf("MayAlias(%s, %s) = %v, want %v", a, b, got, want(a, b))
			}
		}
	}
	if info.MayAlias("s01", "s2n") || !info.MayAlias("s01", "s12") {
		t.Error("location sets must intersect exactly where they share a location")
	}
	if n := testing.AllocsPerRun(100, func() {
		info.MayAlias("s01", "s12")
		info.MayAlias("p0", "p2")
		info.MayAlias("p0", "absent")
	}); n != 0 {
		t.Errorf("MayAlias allocates %v times per run, want 0", n)
	}
}

func TestAnalyzeHavocAndSelect(t *testing.T) {
	body := []lsl.Stmt{
		&lsl.HavocStmt{Dst: "h", Bits: 1},
		&lsl.ConstStmt{Dst: "x", Val: lsl.Int(10)},
		&lsl.ConstStmt{Dst: "y", Val: lsl.Int(20)},
		&lsl.OpStmt{Dst: "s", Op: lsl.OpSelect, Args: []lsl.Reg{"h", "x", "y"}},
	}
	info := Analyze([][]lsl.Stmt{body})
	if info.Regs["h"].Len() != 2 {
		t.Errorf("havoc set = %d", info.Regs["h"].Len())
	}
	if info.Regs["s"].Len() != 2 {
		t.Errorf("select set = %d", info.Regs["s"].Len())
	}
}

func TestAnalyzePointerField(t *testing.T) {
	body := []lsl.Stmt{
		&lsl.ConstStmt{Dst: "p", Val: lsl.Ptr(2)},
		&lsl.OpStmt{Dst: "f", Op: lsl.OpField, Args: []lsl.Reg{"p"}, Imm: 1},
		&lsl.ConstStmt{Dst: "v", Val: lsl.Int(1)},
		&lsl.StoreStmt{Addr: "f", Src: "v"},
	}
	info := Analyze([][]lsl.Stmt{body})
	addrs := info.AddrSet("f")
	if len(addrs) != 1 || !addrs[0].Equal(lsl.Ptr(2, 1)) {
		t.Errorf("field address set = %v", addrs)
	}
	if info.MaxPtrDepth < 2 {
		t.Errorf("MaxPtrDepth = %d", info.MaxPtrDepth)
	}
}

func TestAnalyzeLoopFixpoint(t *testing.T) {
	// c accumulates: c = c + 1 inside a block read repeatedly; the
	// flow-insensitive analysis must terminate (cap) and stay sound.
	body := []lsl.Stmt{
		&lsl.ConstStmt{Dst: "c", Val: lsl.Int(0)},
		&lsl.ConstStmt{Dst: "one", Val: lsl.Int(1)},
		&lsl.OpStmt{Dst: "c", Op: lsl.OpAdd, Args: []lsl.Reg{"c", "one"}},
		&lsl.OpStmt{Dst: "c", Op: lsl.OpAdd, Args: []lsl.Reg{"c", "one"}},
	}
	info := Analyze([][]lsl.Stmt{body})
	// c's set contains at least 0,1,2 (flow-insensitively it reaches
	// the cap or a fixpoint).
	cSet := info.Regs["c"]
	if !cSet.Top && cSet.Len() < 3 {
		t.Errorf("c set too small: %d", cSet.Len())
	}
}

func TestDisabledInfo(t *testing.T) {
	info := Disabled()
	if info.Precise {
		t.Error("disabled info must not claim precision")
	}
	if !info.MayAlias("a", "b") {
		t.Error("disabled info must alias everything")
	}
	if info.IntWidth != DefaultIntWidth || info.MaxPtrDepth != lsl.MaxPtrDepth {
		t.Errorf("defaults: %d, %d", info.IntWidth, info.MaxPtrDepth)
	}
}

// TestSoundnessAgainstInterpreter: for random straight-line programs,
// every value the interpreter computes must be in the analysis sets.
func TestSoundnessAgainstInterpreter(t *testing.T) {
	gen := func(seed int64) []lsl.Stmt {
		// Deterministic little program generator over registers
		// r0..r3 and locations [0],[1].
		var body []lsl.Stmt
		body = append(body,
			&lsl.ConstStmt{Dst: "r0", Val: lsl.Int(seed % 5)},
			&lsl.ConstStmt{Dst: "r1", Val: lsl.Int((seed / 5) % 5)},
			&lsl.ConstStmt{Dst: "p0", Val: lsl.Ptr(0)},
			&lsl.ConstStmt{Dst: "p1", Val: lsl.Ptr(1)},
		)
		// OpMul is excluded: products explode the tracked sets to the
		// cap, which makes each fixpoint pass quadratically expensive;
		// TestAnalyzeMulSoundness covers multiplication separately.
		ops := []lsl.Op{lsl.OpAdd, lsl.OpSub, lsl.OpEq, lsl.OpLt, lsl.OpXor}
		s := uint64(seed)
		for i := 0; i < 6; i++ {
			op := ops[s%uint64(len(ops))]
			s /= 3
			dst := lsl.Reg([]string{"r0", "r1", "r2", "r3"}[s%4])
			s /= 2
			a := lsl.Reg([]string{"r0", "r1"}[s%2])
			s /= 2
			b := lsl.Reg([]string{"r0", "r1"}[s%2])
			s = (s/2 + uint64(seed)) & 0x7fffffff
			body = append(body, &lsl.OpStmt{Dst: dst, Op: op, Args: []lsl.Reg{a, b}})
		}
		body = append(body,
			&lsl.StoreStmt{Addr: "p0", Src: "r2"},
			&lsl.LoadStmt{Dst: "r3", Addr: "p0"},
		)
		return body
	}

	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		body := gen(seed)
		info := Analyze([][]lsl.Stmt{body})
		p := lsl.NewProgram()
		p.AddGlobal("g0", 1)
		p.AddGlobal("g1", 1)
		m := interp.NewMachine(p)
		env, err := m.RunBody(body)
		if err != nil {
			return true // runtime errors are out of scope here
		}
		for reg, val := range env {
			set, ok := info.Regs[reg]
			if !ok {
				t.Logf("seed %d: register %s missing from analysis", seed, reg)
				return false
			}
			if set.Top {
				continue
			}
			found := false
			set.Each(func(v lsl.Value) {
				if v.Equal(val) {
					found = true
				}
			})
			if !found {
				t.Logf("seed %d: %s = %v not in analysis set", seed, reg, val)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestAnalyzeMulSoundness covers multiplication (which widens sets
// aggressively) on fixed programs.
func TestAnalyzeMulSoundness(t *testing.T) {
	body := []lsl.Stmt{
		&lsl.ConstStmt{Dst: "a", Val: lsl.Int(3)},
		&lsl.ConstStmt{Dst: "b", Val: lsl.Int(5)},
		&lsl.OpStmt{Dst: "c", Op: lsl.OpMul, Args: []lsl.Reg{"a", "b"}},
		&lsl.OpStmt{Dst: "c", Op: lsl.OpMul, Args: []lsl.Reg{"c", "c"}},
	}
	info := Analyze([][]lsl.Stmt{body})
	p := lsl.NewProgram()
	m := interp.NewMachine(p)
	env, err := m.RunBody(body)
	if err != nil {
		t.Fatal(err)
	}
	set := info.Regs["c"]
	found := false
	set.Each(func(v lsl.Value) {
		if v.Equal(env["c"]) {
			found = true
		}
	})
	if !set.Top && !found {
		t.Errorf("c = %v not in analysis set", env["c"])
	}
	if info.IntWidth < 9 { // 225 needs 8 magnitude bits + sign
		t.Errorf("IntWidth = %d, must cover 225 signed", info.IntWidth)
	}
}
