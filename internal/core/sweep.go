package core

// This file implements model-sweep groups: RunSuite jobs that are
// identical in everything but Model are checked together by one
// checkAttempt over all their models, whose rounds share one
// selector-guarded encoding (encode.NewSweepWithConfig +
// spec.SweepCheck) instead of encoding per model. Everything
// model-independent is paid once per group — harness build, loop
// unrolling, range analysis, specification mining, circuit
// construction, CNF translation and preprocessing, bound probing —
// and each model's verdict is a pair of solves under assumption
// literals on the shared solver, with learned clauses carried across
// the whole sweep. Verdict semantics are identical to independent
// checks; the differential guarantees are enforced by TestSweepAblation
// and the sweep bench harness.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
	"checkfence/internal/trace"
	"checkfence/internal/validate"
)

// SweepMode controls model-sweep grouping.
type SweepMode int

const (
	// SweepAuto (the zero value) lets a job join a sweep group when
	// the suite sweeps and a compatible group exists.
	SweepAuto SweepMode = iota
	// SweepOff always checks the job independently.
	SweepOff
)

func (m SweepMode) String() string {
	if m == SweepOff {
		return "off"
	}
	return "auto"
}

// ParseSweepMode converts a CLI flag value to a SweepMode.
func ParseSweepMode(s string) (SweepMode, error) {
	switch s {
	case "", "auto", "on":
		return SweepAuto, nil
	case "off":
		return SweepOff, nil
	}
	return 0, fmt.Errorf("core: unknown sweep mode %q (want auto, on, or off)", s)
}

// sweepEligible reports whether a job may join a sweep group at all.
// Serial is excluded structurally (its seriality axioms and operation
// merge classes reshape the encoding); a forced rf backend never
// touches SAT; fault injection is per-check machinery the shared
// pipeline must not multiplex.
func sweepEligible(o Options) bool {
	return o.Sweep != SweepOff && o.Model != memmodel.Serial &&
		o.Backend != BackendRF && o.Faults == nil
}

// sweepFingerprint renders every Options field except Model into a
// grouping key: two jobs sweep together only when nothing but the
// model distinguishes them. Pointer-typed fields group by identity —
// conservative (equal contents behind distinct pointers do not group)
// and therefore always sound.
func sweepFingerprint(o Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "be=%d ra=%t src=%d spec=%p mmi=%d "+
		"enc=%p noval=%t dl=%d cb=%d mem=%d cache=%p cancel=%p",
		o.Backend, o.DisableRangeAnalysis, o.SpecSource, o.Spec, o.MaxMineIterations,
		o.Encode, o.NoValidate, o.Deadline, o.ConflictBudget, o.MemBudgetMB,
		o.SpecCache, o.Cancel)
	keys := make([]string, 0, len(o.InitialBounds))
	for k := range o.InitialBounds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " ib:%s=%d", k, o.InitialBounds[k])
	}
	return b.String()
}

// sweepGroup is one scheduled sweep: a set of suite jobs over the same
// (impl, test, options) differing only in model.
type sweepGroup struct {
	implName, testName string
	// implRef/testRef carry the group's resolved structures when its
	// jobs supplied them (inline programs); nil means the names
	// resolve through the harness registry.
	implRef *harness.Impl
	testRef *harness.Test
	// models holds the group's distinct models, strongest-first —
	// the sweep order the counterexample-replay early exit relies on.
	models []memmodel.Model
	// jobs maps each model to the suite job indices it serves (more
	// than one when a suite repeats a job verbatim).
	jobs map[memmodel.Model][]int
	// opts is the shared option template (Model set to the strongest
	// member).
	opts Options
}

// suiteUnit is one work item of RunSuite's pool: a single job or a
// whole sweep group.
type suiteUnit struct {
	single int // job index; -1 for a group
	group  *sweepGroup
}

// planUnits partitions the suite's jobs into schedulable units. eff
// holds each job's effective options (after the suite injected cache,
// cancellation, and faults) — grouping must see what will actually
// run. Groups need at least two distinct models; everything else
// stays an independent unit in original job order.
func planUnits(jobs []Job, eff []Options, sweepOn bool) []suiteUnit {
	type proto struct {
		firstIdx int
		indices  []int
	}
	protos := map[string]*proto{}
	var order []string
	grouped := make([]bool, len(jobs))
	if sweepOn {
		for i, job := range jobs {
			if !sweepEligible(eff[i]) {
				continue
			}
			// Resolved references group by pointer identity: two inline
			// programs sweep together only when they are literally the
			// same structure, which is conservative and always sound
			// (registry-resolved jobs have nil refs and group by name).
			key := fmt.Sprintf("%s\x00%s\x00%p\x00%p\x00%s",
				job.Impl, job.Test, job.ImplRef, job.TestRef, sweepFingerprint(eff[i]))
			p := protos[key]
			if p == nil {
				p = &proto{firstIdx: i}
				protos[key] = p
				order = append(order, key)
			}
			p.indices = append(p.indices, i)
			grouped[i] = true
		}
	}
	type slot struct {
		pos  int
		unit suiteUnit
	}
	var slots []slot
	for _, key := range order {
		p := protos[key]
		byModel := map[memmodel.Model][]int{}
		var models []memmodel.Model
		for _, idx := range p.indices {
			m := eff[idx].Model
			if len(byModel[m]) == 0 {
				models = append(models, m)
			}
			byModel[m] = append(byModel[m], idx)
		}
		if len(models) < 2 {
			// Nothing to sweep; the members run independently.
			for _, idx := range p.indices {
				grouped[idx] = false
			}
			continue
		}
		sort.Slice(models, func(i, j int) bool {
			a, b := models[i], models[j]
			return a.StrongerThan(b) && !b.StrongerThan(a)
		})
		opts := eff[byModel[models[0]][0]]
		opts.Model = models[0]
		slots = append(slots, slot{pos: p.firstIdx, unit: suiteUnit{
			single: -1,
			group: &sweepGroup{
				implName: jobs[p.firstIdx].Impl,
				testName: jobs[p.firstIdx].Test,
				implRef:  jobs[p.firstIdx].ImplRef,
				testRef:  jobs[p.firstIdx].TestRef,
				models:   models,
				jobs:     byModel,
				opts:     opts,
			},
		}})
	}
	for i := range jobs {
		if !grouped[i] {
			slots = append(slots, slot{pos: i, unit: suiteUnit{single: i}})
		}
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i].pos < slots[j].pos })
	units := make([]suiteUnit, len(slots))
	for i, s := range slots {
		units[i] = s.unit
	}
	return units
}

// modelOutcome is one model's result within a group run.
type modelOutcome struct {
	res *Result
	err error
}

// memberJob renders the group as a Job so fallback members and the
// shared attempt resolve the implementation and test exactly like an
// independent check would.
func (g *sweepGroup) memberJob() Job {
	return Job{Impl: g.implName, Test: g.testName, ImplRef: g.implRef, TestRef: g.testRef}
}

// run checks every model of the group in one checkAttempt. Models the
// shared attempt cannot decide after a degradable failure (budget,
// solver Unknown, recovered panic) fall back to independent CheckImpl
// runs with the full degradation ladder, each building its own front
// end; a non-degradable failure becomes every undecided model's error.
func (g *sweepGroup) run() map[memmodel.Model]*modelOutcome {
	start := time.Now()
	var deadline time.Time
	if g.opts.Deadline > 0 {
		deadline = start.Add(g.opts.Deadline)
	}

	var results []*Result
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("core: sweep group %s/%s panicked: %w",
					g.implName, g.testName, recoverAsError(p))
			}
		}()
		impl, test, err := g.memberJob().resolve()
		if err != nil {
			return err
		}
		results, err = checkAttempt(impl, test, g.models, g.opts, deadline)
		return err
	}()

	outs := make(map[memmodel.Model]*modelOutcome, len(g.models))
	for _, res := range results {
		if res != nil {
			outs[res.Model] = &modelOutcome{res: res}
		}
	}
	if err != nil {
		fallback := degradable(err, g.opts)
		for _, m := range g.models {
			if _, ok := outs[m]; ok {
				continue
			}
			if !fallback {
				outs[m] = &modelOutcome{err: err}
				continue
			}
			o := g.opts
			o.Model = m
			// Fallback deadlines are carved from the group's remaining
			// absolute budget: the shared attempt already consumed part
			// of the user's window, and a fresh per-member window would
			// let the unit exceed the configured deadline by up to a
			// factor of the member count in wall clock. An exhausted
			// window degrades to a minimal one so the member still
			// resolves to a verdict (UNKNOWN with a report), never an
			// error or a hang.
			if o.Deadline > 0 {
				remaining := o.Deadline - time.Since(start)
				if remaining < time.Millisecond {
					remaining = time.Millisecond
				}
				o.Deadline = remaining
			}
			res, cerr := safeCheck(g.memberJob(), o)
			outs[m] = &modelOutcome{res: res, err: cerr}
		}
	}
	return outs
}

// replayUnder re-checks previously decoded counterexample traces of
// stronger models under model m's axioms: model strength
// (memmodel.StrongerThan) makes every stronger-model execution a
// candidate weaker-model execution, and the independent validator is
// the judge. The first trace that validates is returned as a shallow
// copy relabeled to m; nil means m must be solved. Validation here is
// the verdict source, so it runs regardless of Options.NoValidate.
func replayUnder(m memmodel.Model, traces []*trace.Trace,
	built *harness.Built, unrolled *harness.Unrolled) *trace.Trace {
	for _, t := range traces {
		cp := *t
		cp.Model = m
		if validate.Check(&cp, unrolled.Threads, built.Unit.Prog) == nil {
			return &cp
		}
	}
	return nil
}
