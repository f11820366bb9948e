package core

// This file implements model-sweep grouping: RunSuite jobs that are
// identical in everything but Model form one unit, which checkModels
// decides like a single check — one checkAttempt over all its models —
// whose rounds share one selector-guarded encoding (encode.NewReusing
// given several models, then spec.SweepCheck) instead of encoding per
// model. Everything model-independent is paid once per group —
// harness build, loop unrolling, range analysis, specification
// mining, circuit construction, CNF translation and preprocessing,
// bound probing — and each model's verdict is a pair of solves under
// assumption literals on the shared solver, with learned clauses
// carried across the whole sweep. Verdict semantics are identical to
// independent checks; the differential guarantees are enforced by
// TestSweepAblation and the sweep bench harness.

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
	"checkfence/internal/trace"
	"checkfence/internal/validate"
)

// sweepEligible reports whether a job may join a sweep group at all.
// Serial is excluded structurally (its seriality axioms and operation
// merge classes reshape the encoding); fault injection is per-check
// machinery the shared pipeline must not multiplex.
func sweepEligible(o Options) bool {
	return o.Model != memmodel.Serial && o.Faults == nil
}

// sweepFingerprint renders every Options field except Model into a
// grouping key: two jobs sweep together only when nothing but the
// model distinguishes them. Pointer-typed fields group by identity —
// conservative (equal contents behind distinct pointers do not group)
// and therefore always sound.
func sweepFingerprint(o Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ra=%t src=%d spec=%p enc=%p dl=%d cb=%d cache=%p",
		o.DisableRangeAnalysis, o.SpecSource, o.Spec, o.Encode, o.Deadline,
		o.ConflictBudget, o.SpecCache)
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

// planUnits partitions the suite's jobs into units of work. eff holds
// each job's effective options (after the suite injected cache,
// cancellation, and faults) — grouping must see what will actually
// run. Sweep-eligible jobs identical in everything but Model form one
// unit when they span at least two distinct models; every other job
// is a unit of its own model. Units come in the order of their first
// job.
func planUnits(jobs []Job, eff []Options) []*unit {
	keys := make([]string, len(jobs))
	models := map[string][]memmodel.Model{}
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
		keys[i] = key
		if m := eff[i].Model; !slices.Contains(models[key], m) {
			models[key] = append(models[key], m)
		}
	}
	var units []*unit
	groups := map[string]*unit{}
	for i, job := range jobs {
		ms := models[keys[i]]
		if len(ms) < 2 {
			units = append(units, &unit{job: job, opts: eff[i],
				models: []memmodel.Model{eff[i].Model}, jobs: [][]int{{i}}})
			continue
		}
		u := groups[keys[i]]
		if u == nil {
			sort.Slice(ms, func(a, b int) bool {
				return ms[a].StrongerThan(ms[b]) && !ms[b].StrongerThan(ms[a])
			})
			// Members differ in Model only, so any member's options
			// serve the whole group.
			u = &unit{job: job, opts: eff[i], models: ms, jobs: make([][]int, len(ms))}
			u.opts.Model = ms[0]
			groups[keys[i]] = u
			units = append(units, u)
		}
		k := slices.Index(ms, eff[i].Model)
		u.jobs[k] = append(u.jobs[k], i)
	}
	return units
}

// replayUnder re-checks previously decoded counterexample traces of
// stronger models under model m's axioms: model strength
// (memmodel.StrongerThan) makes every stronger-model execution a
// candidate weaker-model execution, and the independent validator is
// the judge. The first trace that validates is returned as a shallow
// copy relabeled to m; nil means m must be solved. Validation here is
// the verdict source.
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
