package harness

import (
	"fmt"
	"maps"

	"checkfence/internal/cparse"
	"checkfence/internal/ctrans"
	"checkfence/internal/encode"
	"checkfence/internal/lsl"
	"checkfence/internal/memmodel"
	"checkfence/internal/ranges"
	"checkfence/internal/sat"
	"checkfence/internal/spec"
	"checkfence/internal/unroll"
)

// Built is a fully assembled verification problem before unrolling.
type Built struct {
	Impl *Impl
	Test *Test
	Unit *ctrans.Unit

	// Threads[0] is the initialization pseudo-thread (init function
	// call plus the test's serial initialization operations).
	Threads []ThreadSpec
	// Entries lists the observed argument/return registers in
	// canonical order (post-unrolling names).
	Entries []spec.Entry
	// CellNames maps out-parameter cell base addresses to labels for
	// trace rendering.
	CellNames map[int64]string
	// ObsOps maps each operation invocation to its observation entry
	// indices (the commit-point method needs per-operation values).
	ObsOps []ObsOp
}

// ObsOp locates one operation invocation's observed values within
// Built.Entries. Indices are -1 when absent.
type ObsOp struct {
	Thread   int
	Seg      int
	Mnemonic string
	NoRetry  bool
	ArgIdx   int
	RetIdx   int
	OutIdx   int
}

// ThreadSpec is one thread as operation segments of LSL code (calls
// not yet inlined, loops not yet unrolled).
type ThreadSpec struct {
	Name     string
	Segments [][]lsl.Stmt
}

// segName is the unroller prefix for a segment; observation entry
// registers use it.
func segName(thread, seg int) string { return fmt.Sprintf("t%d.s%d", thread, seg) }

// Build parses and translates the implementation and constructs the
// harness threads for the test.
func Build(impl *Impl, test *Test) (*Built, error) {
	file, err := cparse.Parse(impl.Source)
	if err != nil {
		return nil, fmt.Errorf("harness: parse %s: %w", impl.Name, err)
	}
	unit, err := ctrans.Translate(file)
	if err != nil {
		return nil, fmt.Errorf("harness: translate %s: %w", impl.Name, err)
	}
	obj, ok := unit.Prog.GlobalByName(impl.Obj)
	if !ok {
		return nil, fmt.Errorf("harness: %s: global object %q not found", impl.Name, impl.Obj)
	}

	b := &Built{Impl: impl, Test: test, Unit: unit, CellNames: map[int64]string{}}

	// Initialization thread: the init function, then the test's
	// serial initialization operations.
	initSegs := [][]lsl.Stmt{{
		&lsl.ConstStmt{Dst: "obj", Val: lsl.Ptr(obj.Base)},
		&lsl.CallStmt{Proc: impl.InitFunc, Args: []lsl.Reg{"obj"}},
	}}
	initThread := ThreadSpec{Name: "init", Segments: initSegs}
	for k, inv := range test.Init {
		seg, err := b.addInvocation(0, k+1, inv, obj.Base)
		if err != nil {
			return nil, err
		}
		initThread.Segments = append(initThread.Segments, seg)
	}
	b.Threads = append(b.Threads, initThread)

	for ti, ops := range test.Threads {
		th := ThreadSpec{Name: fmt.Sprintf("thread%d", ti+1)}
		for k, inv := range ops {
			seg, err := b.addInvocation(ti+1, k, inv, obj.Base)
			if err != nil {
				return nil, err
			}
			th.Segments = append(th.Segments, seg)
		}
		b.Threads = append(b.Threads, th)
	}
	return b, nil
}

// addInvocation builds one invocation and records its observation
// metadata.
func (b *Built) addInvocation(thread, seg int, inv Invocation, objBase int64) ([]lsl.Stmt, error) {
	op, ok := b.Impl.OpByMnemonic(inv.Op)
	if !ok {
		return nil, fmt.Errorf("harness: %s has no operation %q", b.Impl.Name, inv.Op)
	}
	stmts, entries, err := b.buildInvocation(thread, seg, inv, objBase)
	if err != nil {
		return nil, err
	}
	oo := ObsOp{Thread: thread, Seg: seg, Mnemonic: inv.Op, NoRetry: inv.NoRetry,
		ArgIdx: -1, RetIdx: -1, OutIdx: -1}
	next := len(b.Entries)
	if op.NumArgs > 0 {
		oo.ArgIdx = next
		next += op.NumArgs
	}
	if op.HasRet {
		oo.RetIdx = next
		next++
	}
	if op.HasOut {
		oo.OutIdx = next
		next++
	}
	b.Entries = append(b.Entries, entries...)
	b.ObsOps = append(b.ObsOps, oo)
	return stmts, nil
}

// buildInvocation emits the LSL statements for one operation call:
// nondeterministic arguments, the call itself, and observation of the
// return value and out-parameter.
func (b *Built) buildInvocation(thread, seg int, inv Invocation, objBase int64) ([]lsl.Stmt, []spec.Entry, error) {
	op, ok := b.Impl.OpByMnemonic(inv.Op)
	if !ok {
		return nil, nil, fmt.Errorf("harness: %s has no operation %q", b.Impl.Name, inv.Op)
	}
	prefix := segName(thread, seg)
	label := func(suffix string) string {
		return fmt.Sprintf("t%d.%s%d.%s", thread, op.Mnemonic, seg, suffix)
	}
	post := func(r lsl.Reg) lsl.Reg { return lsl.Reg(prefix + "/" + string(r)) }

	var stmts []lsl.Stmt
	var entries []spec.Entry

	stmts = append(stmts, &lsl.ConstStmt{Dst: "obj", Val: lsl.Ptr(objBase)})
	callArgs := []lsl.Reg{"obj"}

	for a := 0; a < op.NumArgs; a++ {
		reg := lsl.Reg(fmt.Sprintf("arg%d", a))
		stmts = append(stmts, &lsl.HavocStmt{Dst: reg, Bits: 1})
		callArgs = append(callArgs, reg)
		entries = append(entries, spec.Entry{
			Label: label(fmt.Sprintf("arg%d", a)), Thread: thread, Reg: post(reg),
		})
	}

	var cellReg lsl.Reg
	if op.HasOut {
		cell := b.Unit.Prog.AddGlobal(fmt.Sprintf("out.%s", prefix), 1)
		b.CellNames[cell.Base] = label("cell")
		cellReg = "outp"
		stmts = append(stmts, &lsl.ConstStmt{Dst: cellReg, Val: lsl.Ptr(cell.Base)})
		callArgs = append(callArgs, cellReg)
	}

	call := &lsl.CallStmt{Proc: op.Func, Args: callArgs, NoRetry: inv.NoRetry}
	if op.HasRet {
		call.Rets = []lsl.Reg{"ret"}
	}
	stmts = append(stmts, call)

	if op.HasRet {
		entries = append(entries, spec.Entry{Label: label("ret"), Thread: thread, Reg: post("ret")})
	}
	if op.HasOut {
		// Observe the out-parameter cell, but only when the operation
		// reported success: *pvalue is unspecified otherwise, so it is
		// masked to undefined (register "undef" is never assigned).
		stmts = append(stmts,
			&lsl.LoadStmt{Dst: "outraw", Addr: cellReg},
			&lsl.OpStmt{Dst: "out", Op: lsl.OpSelect,
				Args: []lsl.Reg{"ret", "outraw", "undef"}})
		entries = append(entries, spec.Entry{Label: label("out"), Thread: thread, Reg: post("out")})
	}
	return stmts, entries, nil
}

// Unrolled is the loop-free, call-free form ready for encoding.
type Unrolled struct {
	Threads []encode.Thread
	Loops   []unroll.LoopInfo
	Allocs  map[int64]string
	Bodies  [][]lsl.Stmt // all segments flattened, for the range analysis

	Instrs int
	Loads  int
	Stores int
}

// Unroll expands every thread with the given loop-instance bounds.
func (b *Built) Unroll(bounds map[string]int) (*Unrolled, error) {
	u := unroll.New(b.Unit.Prog, unroll.Options{Bounds: bounds})
	out := &Unrolled{Allocs: map[int64]string{}}
	for ti, th := range b.Threads {
		et := encode.Thread{Name: th.Name}
		for si, seg := range th.Segments {
			res, err := u.Expand(seg, segName(ti, si))
			if err != nil {
				return nil, fmt.Errorf("harness: unroll %s seg %d: %w", th.Name, si, err)
			}
			et.Segments = append(et.Segments, res.Body)
			et.OpIDs = append(et.OpIDs, si)
			out.Loops = append(out.Loops, res.Loops...)
			for base, site := range res.Allocs {
				out.Allocs[base] = site
			}
			out.Bodies = append(out.Bodies, res.Body)
			out.Instrs += lsl.CountStmts(res.Body)
			l, s := lsl.CountAccesses(res.Body)
			out.Loads += l
			out.Stores += s
		}
		out.Threads = append(out.Threads, et)
	}
	return out, nil
}

// LoopKey resolves a loop id of this unrolling to its stable key.
func (u *Unrolled) LoopKey(id int) (string, bool) {
	for _, li := range u.Loops {
		if li.ID == id {
			return li.Key, true
		}
	}
	return "", false
}

// BoundFor returns the bound used for a loop id in this unrolling.
func (u *Unrolled) BoundFor(id int) int {
	for _, li := range u.Loops {
		if li.ID == id {
			return li.Bound
		}
	}
	return 1
}

// MaxUnrollings caps the unrollings of one lazy unrolling (§3.3). The
// registry rows, the commit-point rows of Fig. 12 included, converge
// in at most 4.
const MaxUnrollings = 12

// Unrolling is the state of the lazy loop unrolling of §3.3: the
// harness unrolled at the current loop bounds, with the range analysis
// (§3.4) of that unrolling.
type Unrolling struct {
	*Unrolled
	Bounds map[string]int
	Info   *ranges.Info
	// Rounds counts the unrollings so far (1 at the initial bounds).
	Rounds int

	built   *Built
	analyze bool
}

// StartUnrolling unrolls b at a copy of the initial bounds. analyze
// selects the range analysis; without it every unrolling gets
// ranges.Disabled().
func (b *Built) StartUnrolling(initial map[string]int, analyze bool) (*Unrolling, error) {
	u := &Unrolling{Bounds: map[string]int{}, built: b, analyze: analyze}
	maps.Copy(u.Bounds, initial)
	return u, u.unroll()
}

// unroll unrolls the harness at the current bounds and analyzes the
// result, once.
func (u *Unrolling) unroll() error {
	un, err := u.built.Unroll(u.Bounds)
	if err != nil {
		return err
	}
	u.Unrolled, u.Info = un, ranges.Disabled()
	if u.analyze {
		u.Info = ranges.Analyze(un.Bodies)
	}
	u.Rounds++
	return nil
}

// Converge is the bound loop of §3.3, run once the check has passed at
// the current bounds: probe the current unrolling for executions that
// leave a loop bound (Probe), grow every flagged loop by one and
// re-unroll (Grow), and repeat until the probe is refuted. It reports
// whether any bound grew; the caller then re-checks at the converged
// bounds. probe builds the probe formula of the current unrolling
// under the given model, with the caller's encoder configuration and
// resource limits; the last formula it built is the refuted probe of
// the converged unrolling. A probe the solver could not finish is an
// error, never a partial growth taken as converged.
func (u *Unrolling) Converge(model memmodel.Model,
	probe func(memmodel.Model) (*encode.Encoder, error)) (bool, error) {

	first := u.Rounds
	for {
		ids, err := u.Probe(model, probe)
		if err != nil {
			return false, err
		}
		if len(ids) == 0 {
			return u.Rounds > first, nil
		}
		if err := u.Grow(ids); err != nil {
			return false, err
		}
	}
}

// Probe is one step of the bound loop: it builds the probe formula of
// the current unrolling under the probe model of model (probeModel)
// and returns, in ascending order, every loop that can leave its bound
// (encode.Encoder.ProbeOverflows flags them all in one probe); nil
// means the probe was refuted and the bounds suffice. An unrolling
// without a loop that can overflow is not probed at all: probe is not
// called and the ids are nil. A probe the solver could not finish
// returns an error wrapping spec.ErrSolverUnknown and, when a budget
// stopped it, the typed *sat.ErrBudget.
func (u *Unrolling) Probe(model memmodel.Model,
	probe func(memmodel.Model) (*encode.Encoder, error)) ([]int, error) {

	if !u.hasMarkers() {
		return nil, nil
	}
	enc, err := probe(probeModel(model))
	if err != nil {
		return nil, err
	}
	ids, st := enc.ProbeOverflows()
	if st == sat.Unknown {
		if be := enc.S.BudgetErr(); be != nil {
			return nil, fmt.Errorf("harness: bound probe: %w: %w", spec.ErrSolverUnknown, be)
		}
		return nil, fmt.Errorf("harness: bound probe: %w", spec.ErrSolverUnknown)
	}
	return ids, nil
}

// Grow is the other step of the bound loop: it grows the bound of
// every loop in ids (a Probe answer) by one and re-unrolls, failing
// once the unrolling has reached MaxUnrollings.
func (u *Unrolling) Grow(ids []int) error {
	if u.Rounds >= MaxUnrollings {
		return fmt.Errorf("harness: loop bounds did not converge after %d rounds", u.Rounds)
	}
	for _, id := range ids {
		key, ok := u.LoopKey(id)
		if !ok {
			return fmt.Errorf("harness: unknown loop id %d", id)
		}
		u.Bounds[key] = u.BoundFor(id) + 1
	}
	return u.unroll()
}

// hasMarkers reports whether the unrolling has a loop that can
// overflow its bound (spin loops are reduced to one iteration).
func (u *Unrolling) hasMarkers() bool {
	for _, li := range u.Loops {
		if !li.Spin {
			return true
		}
	}
	return false
}

// probeModel selects the model loop-bound probes run under. Probing
// under Relaxed does not generally terminate: its same-address
// load-load reordering lets a retry loop re-read a stale value in
// every iteration, so executions exceeding any finite bound exist
// (e.g. the fenced msn enqueue on test Ti2). The paper reports all
// studied loops as statically bounded, which holds under sequential
// consistency; we therefore determine bounds from the SC executions
// (which cover all serial executions needed for mining) and perform
// the relaxed inclusion check within those unrollings. Counterexample
// search is unaffected in practice — reordering bugs appear within
// the SC-derived bounds — and any residual incompleteness is inherent
// to bounded unrolling.
func probeModel(m memmodel.Model) memmodel.Model {
	if memmodel.SequentialConsistency.StrongerThan(m) && m != memmodel.SequentialConsistency {
		return memmodel.SequentialConsistency
	}
	return m
}
