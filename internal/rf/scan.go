package rf

import (
	"fmt"

	"checkfence/internal/encode"
	"checkfence/internal/lsl"
	"checkfence/internal/spec"
)

// binding is the scanned value of a register: either the result of a
// load event (src >= 0) or a concrete value (src < 0).
type binding struct {
	src int
	val lsl.Value
}

// Program is a scanned program inside the reads-from fragment: every
// access has a concrete address, every stored value is concrete, and
// all control flow resolves concretely at scan time. The scan mirrors
// the symbolic compiler's conventions exactly — joint program-order
// counter over loads, stores and fences (advanced for dead statements
// too, so positions line up with encode.Accesses), operation ids per
// segment, atomic block ids — so the engine's axioms range over the
// same event structure the encoder constrains.
type Program struct {
	Events []Event
	Fences []FenceEv
	Loads  []int // event indices of the loads, in creation order

	ThreadNames []string
	envs        []map[lsl.Reg]binding
	stores      map[lsl.Loc][]int // same-address store candidates per location
}

type scanner struct {
	p         *Program
	group     int
	numGroups int
}

// Scan decides whether the program is in the fragment and builds it.
// threads must be the same slice handed to encode.Encoder.Encode
// (thread 0 the initialization pseudo-thread). Any construct the
// engine cannot model exactly — loops, data-dependent control flow,
// arithmetic, symbolic addresses, havocs, asserts, stores of loaded
// values — returns ErrNotApplicable.
func Scan(threads []encode.Thread) (*Program, error) {
	sc := &scanner{p: &Program{stores: map[lsl.Loc][]int{}}, group: -1}
	for ti, th := range threads {
		env := map[lsl.Reg]binding{}
		progIdx := 0
		for si, seg := range th.Segments {
			opID := -1
			if si < len(th.OpIDs) {
				opID = th.OpIDs[si]
			}
			broke, err := sc.stmts(ti, env, seg, &progIdx, opID)
			if err != nil {
				return nil, err
			}
			if broke != "" {
				return nil, fmt.Errorf("%w: break %q escapes its segment", ErrNotApplicable, broke)
			}
		}
		name := th.Name
		if name == "" && ti == 0 {
			name = "init"
		}
		sc.p.ThreadNames = append(sc.p.ThreadNames, name)
		sc.p.envs = append(sc.p.envs, env)
	}
	return sc.p, nil
}

// stmts walks one statement list on the (unique, concrete) live path.
// A taken break returns its target tag; the caller skips to the end of
// that block. Dead statements are walked with deadWalk so the
// program-order counter matches the encoder, which numbers unexecuted
// accesses too.
func (sc *scanner) stmts(ti int, env map[lsl.Reg]binding, list []lsl.Stmt,
	progIdx *int, opID int) (string, error) {

	lookup := func(r lsl.Reg) binding {
		if b, ok := env[r]; ok {
			return b
		}
		return binding{src: -1, val: lsl.Undef()}
	}
	for i, s := range list {
		switch s := s.(type) {
		case *lsl.ConstStmt:
			env[s.Dst] = binding{src: -1, val: s.Val}

		case *lsl.OpStmt:
			if s.Op != lsl.OpIdent {
				return "", fmt.Errorf("%w: operation %v", ErrNotApplicable, s.Op)
			}
			env[s.Dst] = lookup(s.Args[0])

		case *lsl.LoadStmt:
			addr := lookup(s.Addr)
			if addr.src >= 0 || addr.val.Kind != lsl.KindPtr {
				return "", fmt.Errorf("%w: load with non-constant address", ErrNotApplicable)
			}
			ev := Event{
				Idx: len(sc.p.Events), Thread: ti, ProgIdx: *progIdx,
				IsLoad: true, OpID: opID, Group: sc.group,
				Addr: addr.val, Loc: lsl.LocOf(addr.val), Desc: s.String(),
			}
			*progIdx++
			sc.p.Loads = append(sc.p.Loads, ev.Idx)
			sc.p.Events = append(sc.p.Events, ev)
			env[s.Dst] = binding{src: ev.Idx}

		case *lsl.StoreStmt:
			addr := lookup(s.Addr)
			if addr.src >= 0 || addr.val.Kind != lsl.KindPtr {
				return "", fmt.Errorf("%w: store to non-constant address", ErrNotApplicable)
			}
			val := lookup(s.Src)
			if val.src >= 0 {
				// A stored value flowing from a load would couple the
				// value axiom across events; keep the fragment exact.
				return "", fmt.Errorf("%w: store of a loaded value", ErrNotApplicable)
			}
			ev := Event{
				Idx: len(sc.p.Events), Thread: ti, ProgIdx: *progIdx,
				IsLoad: false, OpID: opID, Group: sc.group,
				Addr: addr.val, Loc: lsl.LocOf(addr.val), Val: val.val, Desc: s.String(),
			}
			*progIdx++
			sc.p.stores[ev.Loc] = append(sc.p.stores[ev.Loc], ev.Idx)
			sc.p.Events = append(sc.p.Events, ev)

		case *lsl.FenceStmt:
			sc.p.Fences = append(sc.p.Fences, FenceEv{Thread: ti, ProgIdx: *progIdx, Kind: s.Kind})
			*progIdx++

		case *lsl.AtomicStmt:
			if sc.group >= 0 {
				// Nested blocks merge, mirroring the compiler.
				broke, err := sc.stmts(ti, env, s.Body, progIdx, opID)
				if err != nil {
					return "", err
				}
				if broke != "" {
					deadWalk(list[i+1:], progIdx)
					return broke, nil
				}
				continue
			}
			sc.group = sc.numGroups
			sc.numGroups++
			broke, err := sc.stmts(ti, env, s.Body, progIdx, opID)
			sc.group = -1
			if err != nil {
				return "", err
			}
			if broke != "" {
				deadWalk(list[i+1:], progIdx)
				return broke, nil
			}

		case *lsl.BlockStmt:
			if s.Loop != lsl.NotLoop {
				return "", fmt.Errorf("%w: loop block %q", ErrNotApplicable, s.Tag)
			}
			broke, err := sc.stmts(ti, env, s.Body, progIdx, opID)
			if err != nil {
				return "", err
			}
			if broke == s.Tag {
				continue // consumed: execution resumes after this block
			}
			if broke != "" {
				deadWalk(list[i+1:], progIdx)
				return broke, nil
			}

		case *lsl.BreakStmt:
			cond := lookup(s.Cond)
			if cond.src >= 0 {
				return "", fmt.Errorf("%w: break on a loaded value", ErrNotApplicable)
			}
			truthy, ok := cond.val.IsTruthy()
			if !ok {
				return "", fmt.Errorf("%w: break on an undefined value", ErrNotApplicable)
			}
			if truthy {
				deadWalk(list[i+1:], progIdx)
				return s.Tag, nil
			}

		default:
			return "", fmt.Errorf("%w: statement %T", ErrNotApplicable, s)
		}
	}
	return "", nil
}

// deadWalk advances the program-order counter over statements the
// concrete path skips. The symbolic compiler numbers unexecuted
// accesses too (it emits them with a false execution guard), so live
// events keep identical positions under both.
func deadWalk(list []lsl.Stmt, progIdx *int) {
	for _, s := range list {
		switch s := s.(type) {
		case *lsl.LoadStmt, *lsl.StoreStmt, *lsl.FenceStmt:
			*progIdx++
		case *lsl.BlockStmt:
			deadWalk(s.Body, progIdx)
		case *lsl.AtomicStmt:
			deadWalk(s.Body, progIdx)
		}
	}
}

// resolveEntries maps the observation entries to scanned bindings.
func (p *Program) resolveEntries(entries []spec.Entry) ([]binding, error) {
	out := make([]binding, len(entries))
	for i, ent := range entries {
		if ent.Thread < 0 || ent.Thread >= len(p.envs) {
			return nil, fmt.Errorf("%w: entry %s names thread %d", ErrNotApplicable, ent.Label, ent.Thread)
		}
		b, ok := p.envs[ent.Thread][ent.Reg]
		if !ok {
			return nil, fmt.Errorf("%w: entry %s register %s never assigned", ErrNotApplicable, ent.Label, ent.Reg)
		}
		out[i] = b
	}
	return out, nil
}
