package rf

import (
	"checkfence/internal/lsl"
	"checkfence/internal/memmodel"
	"checkfence/internal/spec"
	"checkfence/internal/trace"
)

// EnumStats reports enumeration work (the benchmark module's rf.*
// layer metrics read it).
type EnumStats struct {
	Steps  int // candidate reads-from extensions attempted
	Execs  int // complete candidate assignments reaching a leaf
	Splits int // case splits spent across all consistency decisions
}

// Add folds another enumeration's counters in.
func (s *EnumStats) Add(o EnumStats) {
	s.Steps += o.Steps
	s.Execs += o.Execs
	s.Splits += o.Splits
}

// loadVal is the value a load yields under assignment src.
func (p *Program) loadVal(src int) lsl.Value {
	if src < 0 {
		return lsl.Undef()
	}
	return p.Events[src].Val
}

// observation resolves the entry bindings under a complete reads-from
// assignment (loadSrc maps a load's event index to its source).
func (p *Program) observation(bindings []binding, loadSrc map[int]int) spec.Observation {
	obs := make(spec.Observation, len(bindings))
	for i, b := range bindings {
		if b.src >= 0 {
			obs[i] = p.loadVal(loadSrc[b.src])
		} else {
			obs[i] = b.val
		}
	}
	return obs
}

// forEach enumerates every consistent execution of p under model:
// depth-first over the loads, each assigned a source (the initial
// memory, then every same-location store in event order), with the
// consistency engine pruning incrementally — a partial assignment's
// constraints are independent of the unassigned loads, so any
// inconsistency refutes the whole subtree. visit receives the
// witness checker (fully resolved and acyclic), the class table for
// linearization, and the assignment; returning true stops the
// enumeration early.
func (p *Program) forEach(model memmodel.Model, b Budget,
	visit func(w *checker, classEvents [][]int, loadSrc map[int]int) (bool, error)) (EnumStats, error) {

	b = b.withDefaults()
	var st EnumStats
	base, classEvents, ok := p.newChecker(model)
	if !ok {
		return st, nil
	}
	loadSrc := map[int]int{}

	var rec func(i int, c *checker) (bool, error)
	rec = func(i int, c *checker) (bool, error) {
		if i == len(p.Loads) {
			st.Execs++
			leaf := c.clone()
			w, err := leaf.decide(&st.Splits, b.MaxSplits)
			if err != nil {
				return false, err
			}
			if w == nil {
				return false, nil
			}
			return visit(w, classEvents, loadSrc)
		}
		l := p.Loads[i]
		cands := append([]int{-1}, p.stores[p.Events[l].Loc]...)
		for _, src := range cands {
			st.Steps++
			if st.Steps > b.MaxSteps {
				return false, ErrBudget
			}
			cc := c.clone()
			if !cc.addLoad(p, model, l, src) || !cc.saturate() {
				continue
			}
			loadSrc[l] = src
			stop, err := rec(i+1, cc)
			if stop || err != nil {
				return stop, err
			}
		}
		delete(loadSrc, l)
		return false, nil
	}
	_, err := rec(0, base)
	return st, err
}

// Observations enumerates the complete observation set of p under
// model — the oracle for SAT-based mining (Serial) and for the
// blocking-clause observation sweep (weak models).
func (p *Program) Observations(model memmodel.Model, entries []spec.Entry, b Budget) (*spec.Set, EnumStats, error) {
	bindings, err := p.resolveEntries(entries)
	if err != nil {
		return nil, EnumStats{}, err
	}
	set := spec.NewSet()
	st, err := p.forEach(model, b, func(_ *checker, _ [][]int, loadSrc map[int]int) (bool, error) {
		set.Add(p.observation(bindings, loadSrc))
		return false, nil
	})
	if err != nil {
		return nil, st, err
	}
	return set, st, nil
}

// CheckInclusion searches for a consistent execution of p under model
// whose observation lies outside set, returning its decoded trace (nil
// when every execution's observation is included — the check passes).
// Fragment programs cannot raise runtime errors, so the SAT check's
// error phase is vacuous here; verdicts still agree because the
// encoder's error conditions are all gated on constructs the scan
// rejects.
func (p *Program) CheckInclusion(model memmodel.Model, entries []spec.Entry, set *spec.Set,
	names map[int64]string, b Budget) (*trace.Trace, EnumStats, error) {

	bindings, err := p.resolveEntries(entries)
	if err != nil {
		return nil, EnumStats{}, err
	}
	var cex *trace.Trace
	st, err := p.forEach(model, b, func(w *checker, classEvents [][]int, loadSrc map[int]int) (bool, error) {
		obs := p.observation(bindings, loadSrc)
		if set.Has(obs) {
			return false, nil
		}
		cex = p.buildTrace(model, w.linearize(classEvents), loadSrc, obs, entries, names)
		return true, nil
	})
	if err != nil {
		return nil, st, err
	}
	return cex, st, nil
}

// buildTrace renders a witness execution in the decoded-counterexample
// format shared with the SAT check, so downstream validation
// (internal/validate) and reporting apply unchanged.
func (p *Program) buildTrace(model memmodel.Model, order []int, loadSrc map[int]int,
	obs spec.Observation, entries []spec.Entry, names map[int64]string) *trace.Trace {

	t := &trace.Trace{
		Model:       model,
		Observation: obs,
		Entries:     entries,
		Havocs:      make([][]int64, len(p.ThreadNames)),
	}
	for pos, idx := range order {
		ev := &p.Events[idx]
		val := ev.Val
		if ev.IsLoad {
			val = p.loadVal(loadSrc[idx])
		}
		tname := "init"
		if ev.Thread > 0 && ev.Thread < len(p.ThreadNames) {
			tname = p.ThreadNames[ev.Thread]
		}
		t.Events = append(t.Events, trace.Event{
			MemOrder: pos, Thread: ev.Thread, ThreadName: tname,
			ProgIdx: ev.ProgIdx, OpID: ev.OpID, Group: ev.Group,
			IsLoad: ev.IsLoad, Addr: ev.Addr,
			AddrName: trace.RenderAddr(ev.Addr, names), Val: val, Desc: ev.Desc,
		})
	}
	for _, f := range p.Fences {
		t.Fences = append(t.Fences, trace.Fence{Thread: f.Thread, ProgIdx: f.ProgIdx, Kind: f.Kind})
	}
	return t
}
