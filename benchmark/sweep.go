package main

import (
	"time"

	"checkfence/internal/core"
	"checkfence/internal/memmodel"
)

// suiteWorkers is the worker count of service-mix's daemon; the host
// the benchmark targets has 2 cores.
const suiteWorkers = 2

// sweepWorkload checks each pair on every model through a core.RunSuite
// call of its own, as `checkfence -model sc,tso,pso,relaxed` does: sweep
// grouping makes one selector-guarded sweep of the pair, with a fresh
// spec cache. A pass runs every pair once, in a seeded order. A pair is
// one sweep group, so one worker runs it, and each call is a timed unit
// that calibrate can scale.
type sweepWorkload struct {
	cfg   config
	g     *gate
	jobs  []core.Job
	keys  []inputKey // keys[i] names jobs[i]
	pairs [][]int    // job indices of each pair, in table order
}

func (w *sweepWorkload) rows() []inputKey { return cut(sweepRows(), w.cfg.limit) }

// procs is 1, for the reasons checkWorkload gives.
func (w *sweepWorkload) procs() int { return 1 }

func (w *sweepWorkload) setup() error {
	w.jobs, w.keys, w.pairs = w.jobs[:0], w.keys[:0], w.pairs[:0]
	for k, key := range w.rows() {
		m, err := memmodel.Parse(key.Model)
		if err != nil {
			return err
		}
		w.jobs = append(w.jobs, core.Job{Impl: key.Impl, Test: key.Test, Opts: core.Options{Model: m}})
		w.keys = append(w.keys, key)
		if k == 0 || key.Impl != w.keys[k-1].Impl || key.Test != w.keys[k-1].Test {
			w.pairs = append(w.pairs, nil)
		}
		w.pairs[len(w.pairs)-1] = append(w.pairs[len(w.pairs)-1], k)
	}
	// Warm up on the first pair.
	var out passOut
	w.sweep(w.pairs[0], &out, nil, nil)
	return nil
}

// sweep runs one pair's jobs, checks their verdicts and adds the call to
// out. tr and acc, when non-nil, receive a span around the call and the
// layer counts of core.Stats.
func (w *sweepWorkload) sweep(idx []int, out *passOut, tr *tracer, acc map[string]float64) {
	jobs := make([]core.Job, len(idx))
	for k, i := range idx {
		jobs[k] = w.jobs[i]
	}
	pair := w.keys[idx[0]].Impl + "/" + w.keys[idx[0]].Test
	var results []core.SuiteResult
	ms, scale, alloc := timed(func() {
		id := 0
		if tr != nil {
			id = tr.begin("core.RunSuite", pair, 0)
		}
		results = core.RunSuite(jobs, core.SuiteOptions{Parallelism: 1, SpecCache: core.NewSpecCache("")})
		if tr != nil {
			tr.end(id)
		}
	})
	out.add(ms, scale, alloc)
	ok := true
	var group float64 // ms, the sweep group's time, which every member reports
	for k, r := range results {
		out.attempted++
		if r.Err != nil || r.Res.Verdict == core.VerdictUnknown {
			out.failed++
			ok = false
			continue
		}
		w.g.check(w.keys[idx[k]], verdictOf(r.Res))
		group = max(group, float64(r.Res.Stats.TotalTime)/1e6)
		if acc != nil {
			addStats(acc, r.Res.Stats)
		}
	}
	if ok {
		out.lat = append(out.lat, sample{pair, ms, scale})
	}
	if acc != nil {
		acc["busy_ms"] += group
	}
}

// addStats folds one result's core.Stats into the layer counts. Shared
// sweep-group costs are attributed to the group's leader, so the sum
// over results counts each once.
func addStats(acc map[string]float64, st core.Stats) {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	acc["unroll.instrs"] += float64(st.Instrs)
	acc["unroll.accesses"] += float64(st.Loads + st.Stores)
	acc["core.bound_rounds"] += float64(st.BoundRounds)
	acc["sat.probe_solve_ms"] += ms(st.ProbeTime)
	acc["encode.encode_ms"] += ms(st.EncodeTime)
	acc["encode.gates"] += float64(st.Gates)
	acc["encode.cnf_vars"] += float64(st.CNFVars)
	acc["encode.cnf_clauses"] += float64(st.CNFClauses)
	acc["pre_clauses"] += float64(st.PreCNFClauses)
	acc["sat.preprocess_ms"] += ms(st.PreprocessTime)
	acc["spec.mine_ms"] += ms(st.MineTime)
	acc["spec.mine_iterations"] += float64(st.MineIterations)
	acc["spec.obs_set_size"] += float64(st.ObsSetSize)
	acc["spec.inclusion_ms"] += ms(st.RefuteTime)
	acc["sat.conflicts"] += float64(st.SolverStats.Conflicts)
	acc["sat.propagations"] += float64(st.SolverStats.Propagations)
	acc["sat.decisions"] += float64(st.SolverStats.Decisions)
	acc["rf.execs"] += float64(st.RFExecs)
	acc["rf.steps"] += float64(st.RFSteps)
	acc["core.sweep_seeded_obs"] += float64(st.SeededObs)
	acc["early_exits"] += float64(st.SweepEarlyExit)
	acc["hits"] += float64(st.SpecCacheHits)
	acc["misses"] += float64(st.SpecCacheMisses)
}

// run makes pass i: every pair in a seeded order, each pair's models in
// a seeded order.
func (w *sweepWorkload) run(i int, tr *tracer, acc map[string]float64) passOut {
	var out passOut
	for p, pair := range shuffled(w.pairs, w.cfg.seed, i) {
		w.sweep(shuffled(pair, w.cfg.seed, i*len(w.pairs)+p), &out, tr, acc)
	}
	return out
}

func (w *sweepWorkload) pass(i int) (passOut, error) { return w.run(i, nil, nil), nil }

// traced times each pair at the RunSuite boundary; the layers come from
// each result's core.Stats.
func (w *sweepWorkload) traced(i int, tr *tracer, acc map[string]float64) (passOut, error) {
	out := w.run(i, tr, acc)
	if out.wall > 0 {
		acc["core.worker_busy_ratio"] = acc["busy_ms"] / 1e3 / out.wall
	}
	if n := acc["hits"] + acc["misses"]; n > 0 {
		acc["core.spec_cache_hit_ratio"] = acc["hits"] / n
	}
	if out.attempted > 0 {
		acc["core.sweep_early_exit_ratio"] = acc["early_exits"] / float64(out.attempted)
	}
	return out, nil
}

func (w *sweepWorkload) close() {}
