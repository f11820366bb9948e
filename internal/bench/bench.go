// Package bench drives the experiments of the paper's Section 4 and
// renders them as the corresponding tables and figures. It is shared
// by cmd/benchtab and the root testing.B benchmarks.
package bench

import (
	"fmt"
	"io"
	"time"

	"checkfence/internal/commit"
	"checkfence/internal/core"
	"checkfence/internal/fenceinfer"
	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
	"checkfence/internal/refimpl"
)

// Runner executes experiment suites.
type Runner struct {
	Quick  bool
	Budget time.Duration
	Out    io.Writer
	// Jobs sets the worker-pool width for the suite experiments
	// (Fig. 10/11): <= 1 runs the checks serially, preserving Budget's
	// early group exit; > 1 runs them through core.RunSuite with a
	// shared observation-set cache. Tables are rendered in suite order
	// either way, so the output is identical up to timing columns.
	Jobs int
}

func (r *Runner) printf(format string, args ...interface{}) {
	fmt.Fprintf(r.Out, format, args...)
}

// quickTests are the per-implementation test subsets that keep a full
// suite under a few minutes; the full sets follow the paper's Fig. 10
// rows.
var quickTests = map[string][]string{
	"ms2":      {"T0", "T1", "Ti2", "Tpc2"},
	"msn":      {"T0", "Ti2", "Tpc2"},
	"lazylist": {"Sac", "Sar", "Saa"},
	"harris":   {"Sac", "Saa"},
	"snark":    {"D0", "Da"},
}

// Impls is the Table 1 study set order.
var Impls = []string{"ms2", "msn", "lazylist", "harris", "snark"}

// TestsFor returns the experiment tests for an implementation under
// the current mode.
func (r *Runner) TestsFor(impl string) []string {
	if r.Quick {
		return quickTests[impl]
	}
	return harness.Fig10Tests[impl]
}

// Table1 prints the study set (paper Table 1).
func (r *Runner) Table1() error {
	rows := []struct{ name, title, desc string }{
		{"ms2", "Two-lock queue [33]", "Queue as linked list; independent head and tail locks."},
		{"msn", "Nonblocking queue [33]", "Same structure, but compare-and-swap instead of locks (Fig. 9)."},
		{"lazylist", "Lazy list-based set [6,18]", "Sorted linked list; per-node locks for add/remove, lock-free membership test."},
		{"harris", "Nonblocking set [16]", "Sorted linked list; compare-and-swap instead of locks."},
		{"snark", "Nonblocking deque [8,10]", "Doubly-linked list; double-compare-and-swap."},
	}
	r.printf("Table 1: the implementations studied\n")
	for _, row := range rows {
		impl, err := harness.Get(row.name)
		if err != nil {
			return err
		}
		r.printf("  %-9s %-28s %s (fences: %d)\n",
			row.name, row.title, row.desc, harness.CountFences(impl.Source))
	}
	return nil
}

// Row is one Fig. 10a measurement.
type Row struct {
	Impl, Test string
	Res        *core.Result
	Err        error
}

// RunFig10 collects the Fig. 10 measurements on the Relaxed model
// (the paper: "all tests use the memory model Relaxed"). Each row is
// passed to visit as soon as its turn in suite order comes up, so long
// suites show progress and serial and parallel runs print identically.
func (r *Runner) RunFig10(opts core.Options, visit func(Row)) []Row {
	if r.Jobs <= 1 {
		var rows []Row
		for _, impl := range Impls {
			for _, test := range r.TestsFor(impl) {
				start := time.Now()
				res, err := core.Check(impl, test, opts)
				row := Row{Impl: impl, Test: test, Res: res, Err: err}
				rows = append(rows, row)
				if visit != nil {
					visit(row)
				}
				if r.Budget > 0 && time.Since(start) > r.Budget {
					break // remaining tests of this group are larger still
				}
			}
		}
		return rows
	}
	var jobs []core.Job
	for _, impl := range Impls {
		for _, test := range r.TestsFor(impl) {
			jobs = append(jobs, core.Job{Impl: impl, Test: test, Opts: opts})
		}
	}
	return r.runSuite(jobs, visit)
}

// runSuite checks jobs on the Runner's worker pool and returns the
// rows in job order. visit is called in job order too: completed rows
// are buffered until their predecessors have been visited (OnResult
// calls are serialized by RunSuite, so no extra locking is needed).
func (r *Runner) runSuite(jobs []core.Job, visit func(Row)) []Row {
	workers := r.Jobs
	if workers < 1 {
		workers = 1
	}
	rows := make([]Row, len(jobs))
	ready := make([]bool, len(jobs))
	next := 0
	core.RunSuite(jobs, core.SuiteOptions{
		Parallelism: workers,
		OnResult: func(i int, sr core.SuiteResult) {
			rows[i] = Row{Impl: sr.Job.Impl, Test: sr.Job.Test, Res: sr.Res, Err: sr.Err}
			ready[i] = true
			for next < len(rows) && ready[next] {
				if visit != nil {
					visit(rows[next])
				}
				next++
			}
		},
	})
	return rows
}

// Fig10a prints the inclusion-check statistics table. Its size columns
// are the clauses the solver holds and, next to them, the transitivity
// clauses of the paper's eager encoding, which the solver's order
// theory stands in for: counted, never emitted. Their sum is the
// paper's formula size.
func (r *Runner) Fig10a() error {
	r.printf("Fig. 10a: inclusion check statistics (model: relaxed)\n")
	r.printf("%-9s %-7s %7s %6s %7s | %9s %9s %10s %10s | %9s %9s | %s\n",
		"impl", "test", "instrs", "loads", "stores",
		"enc[s]", "vars", "clauses", "trans", "solve[s]", "total[s]", "verdict")
	r.RunFig10(core.Options{Model: memmodel.Relaxed}, func(row Row) {
		if row.Err != nil {
			r.printf("%-9s %-7s error: %v\n", row.Impl, row.Test, row.Err)
			return
		}
		s := row.Res.Stats
		verdict := "pass"
		if !row.Res.Pass {
			verdict = "FAIL"
			if row.Res.SeqBug {
				verdict = "FAIL(seq)"
			}
		}
		r.printf("%-9s %-7s %7d %6d %7d | %9.2f %9d %10d %10d | %9.2f %9.2f | %s\n",
			row.Impl, row.Test, s.Instrs, s.Loads, s.Stores,
			s.EncodeTime.Seconds(), s.CNFVars, s.CNFClauses, s.TransitivityClauses,
			s.RefuteTime.Seconds(), s.TotalTime.Seconds(), verdict)
	})
	return nil
}

// Fig10b prints the (memory accesses, solver time, formula size)
// series of the Fig. 10b charts, the size split as in Fig10a.
func (r *Runner) Fig10b() error {
	r.printf("Fig. 10b: solver effort vs. memory accesses in the unrolled code\n")
	r.printf("%-9s %-7s %9s %12s %12s %12s %14s\n",
		"impl", "test", "accesses", "solve[s]", "clauses", "trans", "alloc[MB]")
	rows := r.RunFig10(core.Options{Model: memmodel.Relaxed}, nil)
	for _, row := range rows {
		if row.Err != nil {
			continue
		}
		s := row.Res.Stats
		r.printf("%-9s %-7s %9d %12.3f %12d %12d %14.1f\n",
			row.Impl, row.Test, s.Loads+s.Stores,
			s.RefuteTime.Seconds(), s.CNFClauses, s.TransitivityClauses,
			float64(s.AllocBytes)/1e6)
	}
	return nil
}

// Fig11a prints the specification mining characterization, including
// the refset (reference implementation) path.
func (r *Runner) Fig11a() error {
	r.printf("Fig. 11a: specification mining (observation set size vs. enumeration time)\n")
	r.printf("%-9s %-7s %8s %10s %12s %14s\n",
		"impl", "test", "obs", "iters", "mine[s]", "refset[s]")
	var jobs []core.Job
	for _, impl := range Impls {
		for _, test := range r.TestsFor(impl) {
			jobs = append(jobs, core.Job{Impl: impl, Test: test,
				Opts: core.Options{Model: memmodel.Serial}})
		}
	}
	rows := r.runSuite(jobs, nil)
	for _, row := range rows {
		if row.Err != nil {
			r.printf("%-9s %-7s error: %v\n", row.Impl, row.Test, row.Err)
			continue
		}
		res := row.Res
		im, err := harness.Get(row.Impl)
		if err != nil {
			return err
		}
		tst, err := harness.GetTest(im, row.Test)
		if err != nil {
			return err
		}
		refStart := time.Now()
		refSet, err := refimpl.Enumerate(im, tst)
		refTime := time.Since(refStart)
		if err != nil {
			return err
		}
		agree := ""
		if res.Spec != nil && !res.SeqBug && !res.Spec.Equal(refSet) {
			agree = " (DISAGREES with refset!)"
		}
		r.printf("%-9s %-7s %8d %10d %12.3f %14.4f%s\n",
			row.Impl, row.Test, res.Stats.ObsSetSize, res.Stats.MineIterations,
			res.Stats.MineTime.Seconds(), refTime.Seconds(), agree)
	}
	return nil
}

// Fig11b prints the average runtime breakdown across the Fig. 10
// runs (paper: mining 38%, encoding 29%, refutation 33%).
func (r *Runner) Fig11b() error {
	rows := r.RunFig10(core.Options{Model: memmodel.Relaxed}, nil)
	var mine, enc, refute, probe, total time.Duration
	for _, row := range rows {
		if row.Err != nil {
			continue
		}
		s := row.Res.Stats
		mine += s.MineTime
		enc += s.EncodeTime
		refute += s.RefuteTime
		probe += s.ProbeTime
		total += s.TotalTime
	}
	if total == 0 {
		return fmt.Errorf("no successful runs")
	}
	pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(total) }
	r.printf("Fig. 11b: average breakdown of total runtime\n")
	r.printf("  specification mining : %5.1f%%\n", pct(mine))
	r.printf("  encoding inclusion   : %5.1f%%\n", pct(enc))
	r.printf("  refutation (solver)  : %5.1f%%\n", pct(refute))
	r.printf("  loop bound probes    : %5.1f%%\n", pct(probe))
	r.printf("  (paper: mining 38%%, encoding 29%%, refutation 33%%)\n")
	return nil
}

// Fig11c prints runtimes with and without the range analysis.
func (r *Runner) Fig11c() error {
	r.printf("Fig. 11c: impact of the range analysis on runtime\n")
	r.printf("%-9s %-7s %12s %14s %8s\n", "impl", "test", "with[s]", "without[s]", "ratio")
	// Jobs come in (with, without) pairs per test; both run on the
	// pool, the table is emitted pairwise in suite order. Each job gets
	// a private spec cache: this experiment times the whole check
	// including mining, so the suite-wide cache would skew the
	// comparison.
	var jobs []core.Job
	for _, impl := range Impls {
		for _, test := range r.TestsFor(impl) {
			jobs = append(jobs,
				core.Job{Impl: impl, Test: test,
					Opts: core.Options{Model: memmodel.Relaxed,
						SpecCache: core.NewSpecCache("")}},
				core.Job{Impl: impl, Test: test,
					Opts: core.Options{Model: memmodel.Relaxed, DisableRangeAnalysis: true,
						SpecCache: core.NewSpecCache("")}})
		}
	}
	rows := r.runSuite(jobs, nil)
	var sumRatio float64
	var count int
	for i := 0; i+1 < len(rows); i += 2 {
		with, without := rows[i], rows[i+1]
		if with.Err != nil {
			r.printf("%-9s %-7s error: %v\n", with.Impl, with.Test, with.Err)
			continue
		}
		if without.Err != nil {
			r.printf("%-9s %-7s (without) error: %v\n", without.Impl, without.Test, without.Err)
			continue
		}
		ratio := without.Res.Stats.TotalTime.Seconds() / with.Res.Stats.TotalTime.Seconds()
		sumRatio += ratio
		count++
		r.printf("%-9s %-7s %12.3f %14.3f %7.2fx\n",
			with.Impl, with.Test, with.Res.Stats.TotalTime.Seconds(),
			without.Res.Stats.TotalTime.Seconds(), ratio)
	}
	if count > 0 {
		r.printf("average slowdown without range analysis: %.2fx (paper: ~42%% improvement, up to 3x)\n",
			sumRatio/float64(count))
	}
	return nil
}

// Fig12 compares the observation-set method against the commit-point
// method on the commit-annotated queue.
func (r *Runner) Fig12() error {
	tests := []string{"T0", "Ti2", "Tpc2"}
	if !r.Quick {
		tests = append(tests, "T1", "Ti3", "Tpc3")
	}
	r.printf("Fig. 12: observation-set method vs. commit-point method (msn-commit, relaxed)\n")
	r.printf("Times cover each method's check (mining + encoding + refutation);\n")
	r.printf("the loop-bound probes, identical in both methods, are excluded.\n")
	r.printf("%-7s %14s %14s %8s\n", "test", "obs-set[s]", "commit[s]", "speedup")
	var sum float64
	var count int
	for _, test := range tests {
		obsRes, err := core.Check("msn-commit", test, core.Options{Model: memmodel.Relaxed})
		if err != nil {
			return err
		}
		cpRes, err := commit.Check("msn-commit", test, memmodel.Relaxed)
		if err != nil {
			return err
		}
		if !obsRes.Pass || !cpRes.Pass {
			r.printf("%-7s unexpected verdicts: obs=%v commit=%v\n", test, obsRes.Pass, cpRes.Pass)
			continue
		}
		obsT := (obsRes.Stats.MineTime + obsRes.Stats.EncodeTime + obsRes.Stats.RefuteTime).Seconds()
		cpT := (cpRes.Stats.EncodeTime + cpRes.Stats.RefuteTime).Seconds()
		speedup := cpT / obsT
		sum += speedup
		count++
		r.printf("%-7s %14.3f %14.3f %7.2fx\n", test, obsT, cpT, speedup)
	}
	if count > 0 {
		r.printf("average speedup of the observation-set method: %.2fx (paper: 2.61x)\n",
			sum/float64(count))
	}
	return nil
}

// FenceTable prints the §4.2 results: fenced implementations pass on
// Relaxed, unfenced variants fail, everything passes on SC, and each
// fence of msn is individually necessary.
func (r *Runner) FenceTable() error {
	r.printf("Fence sufficiency (paper §4.2): model verdicts per variant\n")
	r.printf("%-18s %-7s %8s %10s\n", "impl", "test", "sc", "relaxed")
	pairs := []struct{ impl, test string }{
		{"ms2", "T0"}, {"ms2-nofence", "T0"},
		{"msn", "T0"}, {"msn-nofence", "T0"},
		{"lazylist", "Sac"}, {"lazylist-nofence", "Sac"},
		{"harris", "Sac"}, {"harris-nofence", "Sac"},
		{"snark-nofence", "D0"},
	}
	verdict := func(impl, test string, m memmodel.Model) string {
		res, err := core.Check(impl, test, core.Options{Model: m})
		if err != nil {
			return "err"
		}
		if res.Pass {
			return "pass"
		}
		if res.SeqBug {
			return "FAIL(seq)"
		}
		return "FAIL"
	}
	for _, p := range pairs {
		r.printf("%-18s %-7s %8s %10s\n", p.impl, p.test,
			verdict(p.impl, p.test, memmodel.SequentialConsistency),
			verdict(p.impl, p.test, memmodel.Relaxed))
	}

	r.printf("\nFence necessity (msn, tests T0+Ti2, model relaxed):\n")
	rep, err := fenceinfer.Minimize("msn", []string{"T0", "Ti2"}, memmodel.Relaxed)
	if err != nil {
		return err
	}
	r.printf("  candidate fences: %d, removable under these tests: %v\n",
		rep.Candidates, rep.Removed)
	for _, st := range rep.Status {
		mark := "necessary"
		if !st.Necessary {
			mark = "not exercised by these tests"
		}
		r.printf("  fence #%d: %s (witness: %s)\n", st.Index, mark, st.FailingTest)
	}
	return nil
}

// ModelChoice compares runtimes under SC and Relaxed (paper §4.4:
// "performance is about 4%% faster for sequential consistency, which
// is insignificant").
func (r *Runner) ModelChoice() error {
	r.printf("Model choice impact (paper §4.4)\n")
	r.printf("%-9s %-7s %10s %12s %8s\n", "impl", "test", "sc[s]", "relaxed[s]", "ratio")
	var sum float64
	var count int
	for _, impl := range Impls {
		if impl == "snark" {
			continue // fails on both models; timing not comparable
		}
		for _, test := range r.TestsFor(impl) {
			sc, err := core.Check(impl, test, core.Options{Model: memmodel.SequentialConsistency})
			if err != nil {
				continue
			}
			rel, err := core.Check(impl, test, core.Options{Model: memmodel.Relaxed})
			if err != nil {
				continue
			}
			ratio := rel.Stats.TotalTime.Seconds() / sc.Stats.TotalTime.Seconds()
			sum += ratio
			count++
			r.printf("%-9s %-7s %10.3f %12.3f %7.2fx\n", impl, test,
				sc.Stats.TotalTime.Seconds(), rel.Stats.TotalTime.Seconds(), ratio)
		}
	}
	if count > 0 {
		r.printf("average relaxed/sc runtime ratio: %.2f (paper: ~1.04)\n", sum/float64(count))
	}
	return nil
}
