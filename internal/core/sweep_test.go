package core

import (
	"sync"
	"testing"
	"time"

	"checkfence/internal/encode"
	"checkfence/internal/faultinject"
	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
	"checkfence/internal/sat"
)

func fourModelJobs(impl, test string, opts Options) []Job {
	models := []memmodel.Model{
		memmodel.SequentialConsistency, memmodel.TSO,
		memmodel.PSO, memmodel.Relaxed,
	}
	jobs := make([]Job, len(models))
	for i, m := range models {
		o := opts
		o.Model = m
		jobs[i] = Job{Impl: impl, Test: test, Opts: o}
	}
	return jobs
}

// runEach runs every job as its own one-model suite, all concurrently,
// under so: the independent counterpart of a sweep group, each job a
// separate unit. Share so.SpecCache to share the mined sets.
func runEach(jobs []Job, so SuiteOptions) []SuiteResult {
	results := make([]SuiteResult, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = RunSuite([]Job{j}, so)[0]
		}()
	}
	wg.Wait()
	return results
}

// TestSweepEarlyExit: when a stronger model's counterexample replays
// under a weaker model's axioms, the weaker model must be decided
// without a solve and report it. ms2-nofence/T0 fails with an
// out-of-spec observation under both PSO and Relaxed, so the sweep
// decides Relaxed by replaying PSO's trace.
func TestSweepEarlyExit(t *testing.T) {
	results := RunSuite(fourModelJobs("ms2-nofence", "T0", Options{}),
		SuiteOptions{Parallelism: 1})
	requireAllRan(t, results)
	var early int
	for i, r := range results {
		early += r.Res.Stats.SweepEarlyExit
		wantPass := i < 2 // SC and TSO hold, PSO and Relaxed fail
		if r.Res.Pass != wantPass {
			t.Errorf("%v: pass=%v, want %v", r.Job.Opts.Model, r.Res.Pass, wantPass)
		}
		if !r.Res.Pass && r.Res.Cex == nil {
			t.Errorf("%v: failure without a counterexample", r.Job.Opts.Model)
		}
	}
	if early == 0 {
		t.Error("no member was decided by counterexample replay")
	}
	relaxed := results[3].Res
	if relaxed.Stats.SweepEarlyExit != 1 {
		t.Errorf("relaxed: SweepEarlyExit=%d, want 1", relaxed.Stats.SweepEarlyExit)
	}
	if relaxed.Cex == nil || relaxed.Cex.Model != memmodel.Relaxed {
		t.Errorf("replayed counterexample not relabeled: %+v", relaxed.Cex)
	}
}

// TestSweepLitmusOnRF: a sweep group over a litmus shape inside the
// reads-from fragment is decided by the group's one attempt: every
// member reports the group, with the verdicts and observation sets of
// independent checks and the store-buffering ground truth of
// TestBackendAgreement (SC forbids the outcome, TSO, PSO and Relaxed
// allow it).
func TestSweepLitmusOnRF(t *testing.T) {
	impl := litmusImpl()
	test, err := harness.ParseTest("lit", "( ad | bc )", impl)
	if err != nil {
		t.Fatal(err)
	}
	jobs := fourModelJobs(impl.Name, test.Name, Options{})
	for i := range jobs {
		jobs[i].ImplRef, jobs[i].TestRef = impl, test
	}
	swept := RunSuite(jobs, SuiteOptions{Parallelism: 1})
	indep := runEach(jobs, SuiteOptions{Parallelism: 1})
	requireAllRan(t, swept)
	requireAllRan(t, indep)
	fails := []bool{false, true, true, true}
	for i, r := range swept {
		m, st := jobs[i].Opts.Model, r.Res.Stats
		if st.SweepGroups != 1 || st.SweepModels != len(jobs) {
			t.Errorf("%v: SweepGroups=%d SweepModels=%d; want 1 and %d",
				m, st.SweepGroups, st.SweepModels, len(jobs))
		}
		n := indep[i].Res
		if r.Res.Verdict != n.Verdict || !r.Res.Spec.Equal(n.Spec) {
			t.Errorf("%v: sweep verdict %v with %d observations; independent %v with %d",
				m, r.Res.Verdict, r.Res.Spec.Len(), n.Verdict, n.Spec.Len())
		}
		if r.Res.Pass == fails[i] {
			t.Errorf("%v: pass=%v, ground truth fails=%v", m, r.Res.Pass, fails[i])
		}
		if !r.Res.Pass && r.Res.Cex == nil {
			t.Errorf("%v: failed without a counterexample", m)
		}
	}
}

// TestSweepFallbackIndependent: jobs that cannot sweep — a Serial
// member, jobs with fault injection armed (here with no site to fire)
// — run independently and still produce correct results.
func TestSweepFallbackIndependent(t *testing.T) {
	jobs := fourModelJobs("ms2", "T0", Options{Faults: &faultinject.Always{}})
	jobs = append(jobs, Job{Impl: "ms2", Test: "T0", Opts: Options{Model: memmodel.Serial}})
	results := RunSuite(jobs, SuiteOptions{Parallelism: 2})
	requireAllRan(t, results)
	for i, r := range results {
		if !r.Res.Pass {
			t.Errorf("job %d must pass", i)
		}
		if r.Res.Stats.SweepGroups != 0 {
			t.Errorf("job %d joined a sweep group", i)
		}
	}
}

// TestSweepDeadlineFallback: a group whose shared attempt exhausts its
// budget reports its undecided members UNKNOWN, so a tight group
// budget ends in verdicts, never an error or a wedge.
func TestSweepDeadlineFallback(t *testing.T) {
	jobs := fourModelJobs("msn", "T0", Options{Deadline: time.Nanosecond})
	results := RunSuite(jobs, SuiteOptions{Parallelism: 1})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Res == nil {
			t.Fatalf("job %d: nil result", i)
		}
		// Each member must resolve to a verdict (pass or unknown) —
		// never an error.
		if r.Res.Verdict == VerdictFail {
			t.Errorf("job %d: spurious failure under a starved budget", i)
		}
	}
}

// TestSweepFallbackDeadlineBudget: a group runs under its one absolute
// deadline, never fresh windows per member. snark/Da takes seconds, so
// a 400ms group deadline forces the shared attempt to exhaust; were
// each member to re-run under its own full 400ms window, the unit's
// wall clock would inflate to ~(1 + members) x the configured
// deadline.
func TestSweepFallbackDeadlineBudget(t *testing.T) {
	const deadline = 400 * time.Millisecond
	start := time.Now()
	results := RunSuite(fourModelJobs("snark", "Da", Options{Deadline: deadline}),
		SuiteOptions{Parallelism: 1})
	elapsed := time.Since(start)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Res.Verdict != VerdictUnknown {
			// The problem needs seconds; under 400ms every member must
			// budget out (a definitive verdict would mean the deadline
			// was not enforced — or hardware got very fast).
			t.Logf("job %d: verdict %v inside the deadline", i, r.Res.Verdict)
		}
	}
	// Generous ceiling: the group attempt may use the full window plus
	// bounded overhead, but nothing re-opens a full window. Per-member
	// windows would land at ~5x the deadline.
	if elapsed > 3*deadline {
		t.Errorf("sweep unit took %v under a %v deadline; the group outran its one deadline", elapsed, deadline)
	}
}

// TestSweepLadderReport: an UNKNOWN sweep member reports the budget
// that was configured and the one cause that stopped its group — the
// same report an UNKNOWN single check gives.
func TestSweepLadderReport(t *testing.T) {
	const deadline = 400 * time.Millisecond
	results := RunSuite(fourModelJobs("snark", "Da", Options{Deadline: deadline}),
		SuiteOptions{Parallelism: 1})
	unknown := 0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Res.Verdict != VerdictUnknown {
			continue
		}
		unknown++
		b := r.Res.Budget
		if b == nil {
			t.Fatalf("job %d: UNKNOWN without a budget report", i)
		}
		if b.Deadline != deadline {
			t.Errorf("job %d: Budget.Deadline = %v, want the configured %v", i, b.Deadline, deadline)
		}
		if b.Cause != sat.BudgetDeadline.String() {
			t.Errorf("job %d: cause %q, want deadline", i, b.Cause)
		}
	}
	if unknown == 0 {
		// snark/Da needs seconds; a 400ms window decides nothing.
		t.Error("no member budgeted out under a 400ms deadline")
	}
}

// TestSweepFingerprintSeparates: jobs with differing non-model options
// must not share a group.
func TestSweepFingerprintSeparates(t *testing.T) {
	jobs := []Job{
		{Impl: "ms2", Test: "T0", Opts: Options{Model: memmodel.SequentialConsistency}},
		{Impl: "ms2", Test: "T0", Opts: Options{Model: memmodel.Relaxed}},
		{Impl: "ms2", Test: "T0", Opts: Options{Model: memmodel.TSO, Encode: &encode.Config{
			Minimize: true, Preprocess: true}}},
	}
	eff := make([]Options, len(jobs))
	for i := range jobs {
		eff[i] = jobs[i].Opts
	}
	units := planUnits(jobs, eff)
	var groups, singles int
	for _, u := range units {
		switch len(u.models) {
		case 2:
			groups++
		case 1:
			singles++
		default:
			t.Errorf("unit has %d models, want 2 or 1", len(u.models))
		}
	}
	if groups != 1 || singles != 1 {
		t.Errorf("units: %d of two models, %d of one; want 1 and 1", groups, singles)
	}
}

// TestSweepDuplicateModels: two jobs with the identical model share
// the group's single check and both receive results.
func TestSweepDuplicateModels(t *testing.T) {
	jobs := fourModelJobs("ms2", "T0", Options{})
	jobs = append(jobs, jobs[0]) // duplicate the SC job
	results := RunSuite(jobs, SuiteOptions{Parallelism: 1})
	requireAllRan(t, results)
	a, b := results[0].Res, results[len(results)-1].Res
	if a == b {
		t.Error("duplicate jobs share one *Result; want distinct copies")
	}
	if a.Pass != b.Pass || !a.Spec.Equal(b.Spec) {
		t.Error("duplicate jobs diverge")
	}
}

// TestSweepKeepsRoundCosts: a group whose loop bounds grow keeps each
// model's Result across rounds, so the first round's mining and
// encoding stay on the leader. msn/T0 mines at its initial bounds and
// again at the converged ones; the group, mining once per round for
// all four models, must report the same two cache misses as an
// independent SC check.
func TestSweepKeepsRoundCosts(t *testing.T) {
	group := RunSuite(fourModelJobs("msn", "T0", Options{}), SuiteOptions{Parallelism: 1})
	requireAllRan(t, group)
	alone := RunSuite(fourModelJobs("msn", "T0", Options{})[:1], SuiteOptions{Parallelism: 1})
	requireAllRan(t, alone)
	want := alone[0].Res.Stats.SpecCacheMisses
	if want != 2 {
		t.Fatalf("independent SC check: %d cache misses, want 2 (one per bound level)", want)
	}
	var misses int
	for _, r := range group {
		misses += r.Res.Stats.SpecCacheMisses
	}
	if misses != want {
		t.Errorf("group cache misses summed to %d, want %d as for the independent check", misses, want)
	}
	lead := group[0].Res.Stats
	if lead.BoundRounds < 2 {
		t.Fatalf("leader: BoundRounds=%d; msn/T0 must grow its bounds", lead.BoundRounds)
	}
	// The leader carries every round's mining: both misses are its.
	if lead.SpecCacheMisses != want || lead.MineTime <= 0 || lead.EncodeTime <= 0 {
		t.Errorf("leader: misses=%d mine=%v encode=%v; round 1 costs dropped",
			lead.SpecCacheMisses, lead.MineTime, lead.EncodeTime)
	}
}
