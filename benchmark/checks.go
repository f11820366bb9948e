package main

import (
	"fmt"

	"checkfence/internal/core"
	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
	"checkfence/internal/spec"
)

// verdictOf renders a core result in the expected table's terms.
func verdictOf(res *core.Result) string {
	switch {
	case res.SeqBug:
		return vSeqBug
	case res.Verdict == core.VerdictPass:
		return vPass
	case res.Verdict == core.VerdictFail:
		return vFail
	}
	return res.Verdict.String()
}

// reference is core's answer on one input, which the traced layer
// replay must reproduce.
type reference struct {
	verdict string
	set     *spec.Set
	useRF   bool
}

// sameAnswer reports whether the layer replay reproduced core's
// verdict and observation set. A sequential bug has no set: mining
// stopped at the erring serial execution (core may still carry the set
// of an earlier bound round).
func (r reference) sameAnswer(verdict string, set *spec.Set) error {
	if verdict != r.verdict {
		return fmt.Errorf("layer replay verdict %s, core.Check %s", verdict, r.verdict)
	}
	if verdict == vSeqBug {
		return nil
	}
	if set == nil || r.set == nil || !set.Equal(r.set) {
		return fmt.Errorf("layer replay observation set differs from core.Check's")
	}
	return nil
}

// checkWorkload runs its inputs one core.Check at a time, with no spec
// cache: fig10-relaxed and fence-bugs.
type checkWorkload struct {
	cfg  config
	g    *gate
	all  []inputKey
	reps map[inputKey]int // runs of a row per pass; absent means 1

	inputs []resolved
	ref    map[inputKey]reference
}

type resolved struct {
	key   inputKey
	impl  *harness.Impl
	test  *harness.Test
	model memmodel.Model
}

func (w *checkWorkload) rows() []inputKey { return cut(w.all, w.cfg.limit) }

// procs is 1: a check runs alone, and a second processor would only
// carry the collector's background work, whose hand-offs between
// processors time the shared host's scheduler more than the checker.
func (w *checkWorkload) procs() int { return 1 }

func resolve(k inputKey) (resolved, error) {
	impl, err := harness.Get(k.Impl)
	if err != nil {
		return resolved{}, err
	}
	test, err := harness.GetTest(impl, k.Test)
	if err != nil {
		return resolved{}, err
	}
	m, err := memmodel.Parse(k.Model)
	if err != nil {
		return resolved{}, err
	}
	return resolved{k, impl, test, m}, nil
}

// warmUps is how many of the cheapest inputs set-up checks once each.
const warmUps = 3

// setup resolves every input and warms up on the cheapest ones.
func (w *checkWorkload) setup() error {
	w.inputs = w.inputs[:0]
	for _, k := range w.rows() {
		r, err := resolve(k)
		if err != nil {
			return err
		}
		w.inputs = append(w.inputs, r)
	}
	for _, in := range cut(w.inputs, warmUps) {
		res, err := core.Check(in.key.Impl, in.key.Test, core.Options{Model: in.model})
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", in.key, err)
		}
		w.g.check(in.key, verdictOf(res))
	}
	return nil
}

func (w *checkWorkload) pass(i int) (passOut, error) {
	var out passOut
	w.ref = map[inputKey]reference{}
	var list []resolved
	for _, in := range w.inputs {
		for r := 0; r < max(1, w.reps[in.key]); r++ {
			list = append(list, in)
		}
	}
	for _, in := range shuffled(list, w.cfg.seed, i) {
		var res *core.Result
		var err error
		ms, scale, alloc := timed(func() {
			res, err = core.Check(in.key.Impl, in.key.Test, core.Options{Model: in.model})
		})
		out.add(ms, scale, alloc)
		out.attempted++
		if err != nil || res.Verdict == core.VerdictUnknown {
			// No verdict: a failed operation, not a wrong answer.
			out.failed++
			continue
		}
		v := verdictOf(res)
		w.g.check(in.key, v)
		w.ref[in.key] = reference{verdict: v, set: res.Spec, useRF: res.Stats.Backend == "rf"}
		out.lat = append(out.lat, sample{in.key.String(), ms, scale})
	}
	return out, nil
}

// traced replays the inputs through the layer replay, checking each
// answer against the untraced pass's core.Check result.
func (w *checkWorkload) traced(i int, tr *tracer, acc map[string]float64) (passOut, error) {
	var out passOut
	d := newLayerReplay(tr, acc)
	for _, in := range shuffled(w.inputs, w.cfg.seed, i) {
		ref, ok := w.ref[in.key]
		if !ok {
			continue // the untraced check produced no verdict; counted there
		}
		var v string
		var set *spec.Set
		var err error
		ms, scale, alloc := timed(func() {
			v, set, err = d.run(in.key.String(), in.impl, in.test, in.model, ref.useRF)
		})
		out.add(ms, scale, alloc)
		out.attempted++
		if err != nil {
			return out, fmt.Errorf("%s: %w", in.key, err)
		}
		if err := ref.sameAnswer(v, set); err != nil {
			return out, fmt.Errorf("%s: %w", in.key, err)
		}
		w.g.check(in.key, v)
		out.lat = append(out.lat, sample{in.key.String(), ms, scale})
	}
	return out, nil
}

func (w *checkWorkload) close() {}
