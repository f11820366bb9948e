// Command checkfence checks the consistency of a concurrent data type
// implementation on a bounded symbolic test and a memory model,
// reproducing the black-box interface of the paper's Fig. 1:
//
//	checkfence -impl msn -test Tpc2 -model relaxed
//
// Implementations are the paper's Table 1 study set (ms2, msn,
// lazylist, harris, snark) plus derived variants (-nofence, -bug,
// -dropfence<k>); tests are the Fig. 8 names or raw notation such as
// "e ( ed | de )".
//
// -model may be repeated to check several memory models in one run;
// with -j N the checks run on a worker pool of N workers sharing one
// observation-set cache (the specification is model-independent, so it
// is mined once). Repeated models (Serial aside) are checked as one
// model sweep: a single selector-guarded encoding solved once per model
// under assumption literals, with mining, preprocessing, and learned
// clauses shared across the sweep. Verdicts are identical to checking
// each model on its own; a run that needs a separate budget per model
// runs checkfence once per model.
//
// Resource governance: -timeout and -conflicts budget each check's
// wall clock and SAT conflicts per solve. A check that exhausts a
// budget reports UNKNOWN rather than hanging or crashing.
//
// Exit codes (worst result wins, in the order listed):
//
//	2  a check could not run (internal or usage error)
//	1  a check found a violation (FAIL)
//	3  a check exhausted its budgets (UNKNOWN)
//	0  every check passed
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"checkfence/internal/core"
	"checkfence/internal/daemon"
	"checkfence/internal/harness"
	"checkfence/internal/job"
)

// The exit-code contract. Violation and budget exhaustion are
// verdicts, not errors: scripts can distinguish "proved wrong" (1)
// from "ran out of resources" (3) from "could not run" (2).
const (
	exitPass      = 0
	exitViolation = 1
	exitError     = 2
	exitUnknown   = 3
)

// severity orders exit codes by how much they should dominate the
// final code: error > violation > unknown > pass.
func severity(code int) int {
	switch code {
	case exitError:
		return 3
	case exitViolation:
		return 2
	case exitUnknown:
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, runs the suite,
// reports to stdout/stderr, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("checkfence", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		implName  = fs.String("impl", "", "implementation to check (see -list)")
		testName  = fs.String("test", "", "symbolic test name or Fig. 8 notation")
		specSrc   = fs.String("spec", "sat", "specification source: sat (mine from implementation) or refset (alias ref)")
		noRanges  = fs.Bool("no-range-analysis", false, "disable the range analysis of paper §3.4")
		jobs      = fs.Int("j", 1, "number of checks run concurrently (0 = GOMAXPROCS)")
		cacheDir  = fs.String("spec-cache-dir", "", "persist mined observation sets in this directory")
		timeout   = fs.Duration("timeout", 0, "wall-clock budget per check; an exhausted check reports UNKNOWN, exit 3 (0 = none)")
		conflicts = fs.Int64("conflicts", 0, "SAT conflict budget per solve (0 = none)")
		list      = fs.Bool("list", false, "list implementations and tests")
		showSpec  = fs.Bool("show-spec", false, "print the mined observation set (local runs only)")
		stats     = fs.Bool("stats", false, "print Fig. 10-style statistics (local runs only)")
		remote    = fs.String("remote", "", "submit the checks to a checkfenced daemon at this base URL (resilient client: retries with backoff, honors Retry-After, falls back to polling on a broken stream)")
	)
	// -model values are checked when the batch is expanded, as the
	// daemon checks them.
	var models []string
	fs.Func("model", "memory model: sc, tso, pso, relaxed, serial (repeatable)", func(s string) error {
		// Accept comma-separated values too: -model sc,tso,pso,relaxed.
		for _, part := range strings.Split(s, ",") {
			models = append(models, strings.TrimSpace(part))
		}
		return nil
	})
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: checkfence -impl <name> -test <name> [-model sc|tso|pso|relaxed]... [-j N]")
		fmt.Fprintln(stderr, "       checkfence -list")
		fmt.Fprintln(stderr, "exit codes: 0 all checks passed, 1 violation found, 2 internal/usage error,")
		fmt.Fprintln(stderr, "            3 budgets exhausted (UNKNOWN); the worst code wins (2 > 1 > 3 > 0)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitError
	}

	if *list {
		printList(stdout)
		return exitPass
	}
	if *implName == "" || *testName == "" {
		fs.Usage()
		return exitError
	}
	// The one check description, in the form the daemon takes: local
	// runs expand it through the same code the daemon runs.
	req := daemon.BatchRequest{
		Jobs: []daemon.BatchJob{{
			Check: job.Check{
				Program:         job.Program{Name: *implName},
				Test:            *testName,
				SpecSource:      *specSrc,
				NoRangeAnalysis: *noRanges,
				ConflictBudget:  *conflicts,
			},
			Models: models,
		}},
		Timeout: job.Duration(*timeout),
	}

	if *remote != "" {
		if *showSpec || *stats {
			// The wire record carries neither the observation set nor
			// the full statistics.
			fmt.Fprintln(stderr, "checkfence: -show-spec and -stats need a local run; they cannot be combined with -remote")
			return exitError
		}
		return runRemote(*remote, &req, stdout, stderr)
	}

	suite, err := req.Expand(0, 0, 0)
	if err != nil {
		fmt.Fprintln(stderr, "checkfence:", err)
		return exitError
	}
	results := core.RunSuite(suite, core.SuiteOptions{
		Parallelism: *jobs,
		SpecCache:   core.NewSpecCache(*cacheDir),
	})

	p := printer{stdout: stdout, stderr: stderr}
	for _, r := range results {
		p.print(job.NewResult(r.Job, r.Res, r.Err), func(w io.Writer) {
			printDetails(w, r.Res, *showSpec, *stats)
		})
	}
	return p.exit
}

// printer reports check results one after another, blank-line
// separated, in local and remote mode alike, and keeps the worst exit
// code seen.
type printer struct {
	stdout, stderr io.Writer
	printed        bool
	exit           int
}

func (p *printer) bump(code int) {
	if severity(code) > severity(p.exit) {
		p.exit = code
	}
}

// print reports one result: a run error on stderr, a verdict on
// stdout — local-only details (from details, when non-nil), then the
// headline, the budget trail and the counterexample.
func (p *printer) print(r job.Result, details func(io.Writer)) {
	if r.Error != "" {
		fmt.Fprintln(p.stderr, "checkfence:", r.Error)
		p.bump(exitError)
		return
	}
	w := p.stdout
	if p.printed {
		fmt.Fprintln(w)
	}
	p.printed = true
	if details != nil {
		details(w)
	}
	code := exitViolation
	switch {
	case r.Verdict == core.VerdictUnknown.String():
		fmt.Fprintf(w, "UNKNOWN: %s / %s on %s (budgets exhausted)\n", r.Impl, r.Test, r.Model)
		code = exitUnknown
	case r.Pass:
		fmt.Fprintf(w, "PASS: %s / %s on %s\n", r.Impl, r.Test, r.Model)
		code = exitPass
	case r.SeqBug:
		fmt.Fprintf(w, "FAIL: %s / %s has a sequential bug (independent of the memory model)\n",
			r.Impl, r.Test)
	default:
		fmt.Fprintf(w, "FAIL: %s / %s on %s\n", r.Impl, r.Test, r.Model)
	}
	if b := r.Budget; b != nil {
		var limits []string
		if b.Deadline != "" {
			limits = append(limits, "timeout "+b.Deadline)
		}
		if b.ConflictBudget > 0 {
			limits = append(limits, fmt.Sprintf("conflicts %d", b.ConflictBudget))
		}
		if len(limits) > 0 {
			fmt.Fprintf(w, "  budgets: %s\n", strings.Join(limits, ", "))
		}
		if b.Cause != "" {
			fmt.Fprintf(w, "  cause: %s\n", b.Cause)
		}
	}
	if r.Cex != "" {
		fmt.Fprintln(w, r.Cex)
	}
	p.bump(code)
}

// printDetails prints the local-only parts of a result: the mined
// observation set (-show-spec) and the Fig. 10 statistics (-stats).
func printDetails(w io.Writer, res *core.Result, showSpec, stats bool) {
	if showSpec && res.Spec != nil {
		fmt.Fprintf(w, "observation set (%d):\n", res.Spec.Len())
		for _, o := range res.Spec.All() {
			fmt.Fprintf(w, "  %s\n", o.Key())
		}
	}
	if stats {
		s := res.Stats
		if s.SweepGroups > 0 {
			fmt.Fprintf(w, "sweep: group of %d models, %d selector vars, %d guarded units\n",
				s.SweepModels, s.SelectorVars, s.SelectorUnits)
			if s.EncodesReused > 0 {
				fmt.Fprintf(w, "sweep sharing: encoding reused, %d observations seeded\n", s.SeededObs)
			}
			if s.SweepEarlyExit > 0 {
				fmt.Fprintln(w, "sweep sharing: decided by replaying a stronger model's counterexample")
			}
		}
		fmt.Fprintf(w, "unrolled: %d instrs, %d loads, %d stores\n", s.Instrs, s.Loads, s.Stores)
		fmt.Fprintf(w, "circuit: %d gates\n", s.Gates)
		fmt.Fprintf(w, "cnf: %d vars, %d clauses\n", s.CNFVars, s.CNFClauses)
		if s.OrderVarsFixed+s.OrderVarsMerged > 0 {
			fmt.Fprintf(w, "order reduction: %d vars fixed, %d merged\n", s.OrderVarsFixed, s.OrderVarsMerged)
		}
		switch ss := s.SolverStats; {
		case ss.Preprocessed:
			fmt.Fprintf(w, "preprocessing after %d conflicts: %d -> %d clauses in %v (%d vars eliminated)\n",
				ss.PreprocessConflicts, s.PreCNFClauses, s.CNFClauses, ss.PreprocessTime, ss.VarsEliminated)
		case s.CNFVars > 0:
			fmt.Fprintf(w, "preprocessing: not run (decided in %d conflicts)\n", ss.Conflicts)
		}
		fmt.Fprintf(w, "observation set: %d (mined in %d iterations)\n", s.ObsSetSize, s.MineIterations)
		if s.SpecCacheHits+s.SpecCacheMisses > 0 {
			fmt.Fprintf(w, "spec cache: %d hits, %d misses\n", s.SpecCacheHits, s.SpecCacheMisses)
		}
		if s.SpecCacheCorrupt > 0 {
			fmt.Fprintf(w, "spec cache: %d corrupt entries quarantined\n", s.SpecCacheCorrupt)
		}
		if s.ChronoBacktracks > 0 {
			fmt.Fprintf(w, "chrono backtracks: %d\n", s.ChronoBacktracks)
		}
		if ss := s.SolverStats; ss.TierCore+ss.TierMid+ss.TierLocal > 0 {
			fmt.Fprintf(w, "learnt tiers: %d core, %d mid, %d local\n", ss.TierCore, ss.TierMid, ss.TierLocal)
		}
		fmt.Fprintf(w, "times: probe=%v mine=%v encode=%v refute=%v total=%v\n",
			s.ProbeTime, s.MineTime, s.EncodeTime, s.RefuteTime, s.TotalTime)
		fmt.Fprintf(w, "bound rounds: %d\n", s.BoundRounds)
		if s.AllocBytes > 0 {
			// A sweep counts its shared allocation on its first model;
			// a check that ran beside another has no figure.
			fmt.Fprintf(w, "memory: %.1f MB allocated\n", float64(s.AllocBytes)/1e6)
		}
	}
}

func printList(w io.Writer) {
	impls := harness.Implementations()
	names := make([]string, 0, len(impls))
	for n := range impls {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "implementations:")
	for _, n := range names {
		im := impls[n]
		var ops []string
		for _, op := range im.Ops {
			ops = append(ops, op.Mnemonic+"="+op.Func)
		}
		fmt.Fprintf(w, "  %-18s %-6s ops: %s\n", n, im.Kind, strings.Join(ops, " "))
	}
	fmt.Fprintln(w, "\ntests (per kind):")
	for _, im := range []string{"msn", "lazylist", "snark"} {
		impl := impls[im]
		tests, err := harness.TestsFor(impl)
		if err != nil {
			continue
		}
		names := make([]string, 0, len(tests))
		for n := range tests {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "  %s:\n", impl.Kind)
		for _, n := range names {
			fmt.Fprintf(w, "    %-8s\n", n)
		}
	}
}
