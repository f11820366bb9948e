package fleet

// The fleet chaos suite: every network-level fault class is injected
// at its worker hook point and the distributed verdict (and, for PASS,
// the observation set) is asserted bit-identical to the serial oracle
// — the ISSUE's contract that no fault degrades to a wrong or silent
// verdict, only to a slower one with the cause on the metrics surface.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"checkfence/internal/core"
	"checkfence/internal/faultinject"
	"checkfence/internal/job"
)

func testCheck(impl, test, model string) job.Check {
	return job.Check{Program: job.Program{Name: impl}, Test: test, Model: model}
}

// serialOracle solves the check in-process — the ground truth every
// distributed run must reproduce.
func serialOracle(t *testing.T, ck job.Check) Outcome {
	t.Helper()
	cj, err := ck.CoreJob()
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	res := core.RunSuite([]core.Job{cj}, core.SuiteOptions{Parallelism: 1})
	out := NewOutcome(res[0])
	if out.Error != "" {
		t.Fatalf("oracle failed to run: %s", out.Error)
	}
	return out
}

// assertAgrees asserts the distributed outcome reproduces the oracle:
// same verdict bits, and for PASS a byte-identical observation set.
func assertAgrees(t *testing.T, got, want Outcome, label string) {
	t.Helper()
	if got.Error != "" {
		t.Fatalf("%s: distributed run errored: %s", label, got.Error)
	}
	if got.Verdict != want.Verdict || got.Pass != want.Pass || got.SeqBug != want.SeqBug {
		t.Fatalf("%s: distributed verdict %q (pass=%v seqbug=%v) != serial %q (pass=%v seqbug=%v)",
			label, got.Verdict, got.Pass, got.SeqBug, want.Verdict, want.Pass, want.SeqBug)
	}
	if want.Verdict == "pass" && got.Spec != want.Spec {
		t.Fatalf("%s: distributed observation set differs from serial:\n got: %q\nwant: %q",
			label, got.Spec, want.Spec)
	}
}

// fastConfig is a coordinator tuned for test time: short leases (the
// janitor runs at lease/4), near-immediate requeue backoff.
func fastConfig() CoordinatorConfig {
	return CoordinatorConfig{
		Lease:          120 * time.Millisecond,
		BaseBackoff:    5 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		PollRetryAfter: 5 * time.Millisecond,
	}
}

func newTestCoordinator(t *testing.T, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// startWorker runs an in-process worker against the coordinator until
// the test ends.
func startWorker(t *testing.T, c *Coordinator, id string, mod func(*WorkerConfig)) *Worker {
	t.Helper()
	cfg := WorkerConfig{ID: id, Local: c, PollInterval: 5 * time.Millisecond}
	if mod != nil {
		mod(&cfg)
	}
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatalf("NewWorker(%s): %v", id, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return w
}

func eventually(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v: %s", timeout, msg)
}

// TestDistributedMatchesSerial: the fault-free baseline — a passing
// and a failing check, each leased whole to one of two workers, must
// reproduce the serial verdict and (for PASS) observation set, also
// when submitted again after the coordinator answered it.
func TestDistributedMatchesSerial(t *testing.T) {
	c := newTestCoordinator(t, fastConfig())
	startWorker(t, c, "w1", nil)
	startWorker(t, c, "w2", nil)

	for _, tc := range []struct {
		label string
		ck    job.Check
	}{
		{"pass", testCheck("msn", "T0", "sc")},
		{"fail", testCheck("msn-nofence", "T0", "relaxed")},
	} {
		want := serialOracle(t, tc.ck)
		for run := 0; run < 2; run++ {
			got, err := c.CheckDistributed(context.Background(), tc.ck)
			if err != nil {
				t.Fatalf("%s: CheckDistributed: %v", tc.label, err)
			}
			assertAgrees(t, got, want, tc.label)
		}
	}
	m := c.Metrics()
	if m.TasksCompleted != 4 || m.TasksDispatched < 4 {
		t.Fatalf("want 4 completed tasks (2 checks x 2 submissions): %+v", m)
	}
}

// TestFaultMatrix sweeps every network fault site across several
// seeds: three workers share one one-shot fault script, so exactly one
// injected failure strikes per run, and every distributed verdict must
// still equal the serial oracle. A run dispatches a batch of three
// checks at once, so each site has at least three occurrences and the
// seed-chosen one (within a window of 3) is always reached. Per-site
// metric assertions pin the degradation path that absorbed the fault.
func TestFaultMatrix(t *testing.T) {
	cks := []job.Check{
		testCheck("msn", "T0", "sc"),
		testCheck("ms2", "T0", "sc"),
		testCheck("msn-nofence", "T0", "relaxed"),
	}
	var want []Outcome
	for _, ck := range cks {
		want = append(want, serialOracle(t, ck))
	}

	for _, site := range faultinject.NetworkSites() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", site, seed), func(t *testing.T) {
				c := newTestCoordinator(t, fastConfig())
				script := faultinject.NewScript(seed, 3, site)
				for i := 0; i < 3; i++ {
					startWorker(t, c, fmt.Sprintf("w%d", i), func(cfg *WorkerConfig) {
						cfg.Faults = script
					})
				}
				got := make([]Outcome, len(cks))
				errs := make([]error, len(cks))
				var wg sync.WaitGroup
				for i, ck := range cks {
					wg.Add(1)
					go func(i int, ck job.Check) {
						defer wg.Done()
						got[i], errs[i] = c.CheckDistributed(context.Background(), ck)
					}(i, ck)
				}
				wg.Wait()
				for i, ck := range cks {
					if errs[i] != nil {
						t.Fatalf("CheckDistributed(%s): %v", ck.Program.Name, errs[i])
					}
					assertAgrees(t, got[i], want[i], string(site)+" "+ck.Program.Name)
				}

				if script.Fired(site) == 0 {
					t.Fatalf("fault %s never fired (windowed occurrence never reached)", site)
				}
				m := c.Metrics()
				switch site {
				case faultinject.FleetWorkerCrash, faultinject.FleetDropResult:
					// The lease died with the fault; the janitor must have
					// reclaimed it and the check must have been re-dispatched.
					if m.LeaseExpirations == 0 || m.Requeues == 0 {
						t.Fatalf("fault %s absorbed without lease expiry + requeue: %+v", site, m)
					}
				case faultinject.FleetDupResult:
					if m.DupResults == 0 {
						t.Fatalf("duplicate delivery not deduplicated: %+v", m)
					}
				}
			})
		}
	}
}

// TestRetryExhaustionFallsBackLocally: a check no worker ever answers
// — a single worker that always drops its results, or three workers
// that always crash — must spend its retry budget of 1+MaxRetries
// dispatches and then be solved locally: degradation, never a lost
// verdict.
func TestRetryExhaustionFallsBackLocally(t *testing.T) {
	for _, tc := range []struct {
		label   string
		site    faultinject.Site
		workers int
	}{
		{"dropper", faultinject.FleetDropResult, 1},
		{"crashers", faultinject.FleetWorkerCrash, 3},
	} {
		t.Run(tc.label, func(t *testing.T) {
			cfg := fastConfig()
			cfg.Lease = 60 * time.Millisecond
			cfg.MaxRetries = 2
			c := newTestCoordinator(t, cfg)
			for i := 0; i < tc.workers; i++ {
				startWorker(t, c, fmt.Sprintf("%s%d", tc.label, i), func(cfg *WorkerConfig) {
					cfg.Faults = &faultinject.Always{Sites: []faultinject.Site{tc.site}}
				})
			}

			ck := testCheck("ms2", "T0", "sc")
			ck.Backend = "rf"
			want := serialOracle(t, ck)
			got, err := c.CheckDistributed(context.Background(), ck)
			if err != nil {
				t.Fatalf("CheckDistributed: %v", err)
			}
			assertAgrees(t, got, want, tc.label)
			if got.Budget == nil || len(got.Budget.Rungs) == 0 ||
				got.Budget.Rungs[len(got.Budget.Rungs)-1] != "fleet local-fallback" {
				t.Fatalf("budget trail = %+v, want it to end with the rung \"fleet local-fallback\"", got.Budget)
			}
			m := c.Metrics()
			if m.TasksDispatched != int64(1+cfg.MaxRetries) || m.Requeues != int64(cfg.MaxRetries) ||
				m.LocalFallbacks != 1 {
				t.Fatalf("metrics %+v, want %d dispatches, %d requeues, 1 local fallback",
					m, 1+cfg.MaxRetries, cfg.MaxRetries)
			}
		})
	}
}

// TestCrashRecoveryJournal kills a coordinator with one of two
// submitted checks finished, restarts it from the journal, and
// asserts: the finished check is replayed rather than re-run, only the
// other one runs again, no check is recorded twice, and both verdicts
// plus observation sets match the serial oracle.
func TestCrashRecoveryJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	cks := []job.Check{testCheck("msn", "T0", "sc"), testCheck("ms2", "T0", "sc")}
	var want []Outcome
	for _, ck := range cks {
		want = append(want, serialOracle(t, ck))
	}

	// --- first life: submit both, finish exactly one, crash. --------
	cfg := fastConfig()
	cfg.JournalPath = path
	c1, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	type waitResult struct {
		fp  string
		err error
	}
	errc := make(chan waitResult, len(cks))
	for _, ck := range cks {
		go func(ck job.Check) {
			_, err := c1.CheckDistributed(ctx1, ck)
			errc <- waitResult{ck.Fingerprint(), err}
		}(ck)
	}
	eventually(t, 2*time.Second, func() bool { return c1.QueueDepth() == 2 },
		"checks never queued")

	w1, err := NewWorker(WorkerConfig{ID: "w1", Local: c1})
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	resp := c1.Poll("w1")
	if resp.Task == nil {
		t.Fatal("no task leased to w1")
	}
	w1.runTask(context.Background(), resp.Task)
	if got := w1.Stats().Completed; got != 1 {
		t.Fatalf("first life completed %d tasks, want 1", got)
	}
	finished := resp.Task.ID

	cancel1() // the waiters are abandoned; the coordinator "crashes"
	for i := 0; i < len(cks); i++ {
		r := <-errc
		// The finished check may answer before the cancel lands; the
		// other one has no worker and must report the cancellation.
		if r.fp != finished && !errors.Is(r.err, context.Canceled) {
			t.Fatalf("abandoned CheckDistributed returned %v, want context.Canceled", r.err)
		}
	}
	c1.Close()

	if got := readJournal(t, path); len(got) != 1 || got[0] != finished {
		t.Fatalf("journal after the crash records %v, want [%s]", got, finished)
	}

	// --- second life: replay one, re-run only the other. ------------
	c2, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator (restart): %v", err)
	}
	defer c2.Close()
	w2 := startWorker(t, c2, "w2", nil)

	for i, ck := range cks {
		got, err := c2.CheckDistributed(context.Background(), ck)
		if err != nil {
			t.Fatalf("CheckDistributed (restart): %v", err)
		}
		assertAgrees(t, got, want[i], "crash recovery "+ck.Program.Name)
	}

	if m := c2.Metrics(); m.JournalReplayed != 1 || m.TasksCompleted != 1 {
		t.Fatalf("restart replayed %d and completed %d checks, want 1 and 1",
			m.JournalReplayed, m.TasksCompleted)
	}
	// The worker bumps Completed only after its result report returns,
	// which can be after CheckDistributed has already returned.
	eventually(t, 2*time.Second, func() bool { return w2.Stats().Completed >= 1 },
		"second-life worker never completed a check")
	if comp := w2.Stats().Completed; comp != 1 {
		t.Fatalf("second life re-ran %d checks, want 1 (the missing one)", comp)
	}
	got := readJournal(t, path)
	if len(got) != 2 || got[0] != finished || got[1] == finished {
		t.Fatalf("journal records %v, want %s then the other check once", got, finished)
	}
}

// readJournal lists the fingerprints of the journal's result records
// in file order.
func readJournal(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("opening journal: %v", err)
	}
	defer f.Close()
	var fps []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err == nil && rec.Event == resultEvent {
			fps = append(fps, rec.Check)
		}
	}
	return fps
}

// TestJournalSkipsCorruptTail: a torn write (crash mid-append) must
// degrade to re-running the check, not to adopting a corrupt outcome.
func TestJournalSkipsCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	whole := testCheck("ms2", "T0", "sc")
	torn := testCheck("ms2", "T0", "tso")

	j, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WriteOutcome(&task{id: whole.Fingerprint(), outcome: Outcome{Result: job.Result{Verdict: "pass", Pass: true}}}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"event":"result","check":"` + torn.Fingerprint() + `","result":{"verdi`)
	f.Close()

	j2, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if out, ok, err := j2.Replay(whole.Fingerprint()); err != nil || !ok || out.Verdict != "pass" {
		t.Fatalf("Replay of the intact record = %+v, %v, %v", out, ok, err)
	}
	if out, ok, err := j2.Replay(torn.Fingerprint()); err != nil || ok {
		t.Fatalf("torn record was adopted: %+v, %v, %v", out, ok, err)
	}
}

// TestJournalIgnoresCubeRecords replays a journal in the format the
// fleet wrote when it split checks into cubes: a 4-cube plan and a
// "done" record for cube 0 that passed. A cube's PASS says nothing
// about the other cubes, so the restarted coordinator must not adopt
// it; it re-runs the check and returns the serial FAIL. The journal
// also holds an "outcome" record, the shape written before results
// were job.Result records; replay skips it the same way.
func TestJournalIgnoresCubeRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	ck := testCheck("msn-nofence", "T0", "relaxed")
	want := serialOracle(t, ck)
	if want.Verdict != "fail" {
		t.Fatalf("oracle verdict %q, want fail", want.Verdict)
	}
	fp := ck.Fingerprint()
	cube := func(i int, assume string) string {
		idx := ""
		if i != 0 {
			idx = fmt.Sprintf(`,"cube_index":%d`, i)
		}
		return `{"program":{"name":"msn-nofence"},"test":"T0","model":"relaxed","sweep":"off",` +
			`"assume":` + assume + `,"cube_of":"` + fp + `"` + idx + `}`
	}
	fixture := `{"event":"plan","parent":"` + fp + `","checks":[` +
		cube(0, "[1,2]") + "," + cube(1, "[-1,2]") + "," + cube(2, "[1,-2]") + "," + cube(3, "[-1,-2]") + "]}\n" +
		`{"event":"done","parent":"` + fp + `","from":"w1","outcome":{"verdict":"pass","pass":true,"spec":"x"}}` + "\n" +
		`{"event":"outcome","check":"` + fp + `","from":"w1","outcome":{"verdict":"pass","pass":true,"spec":"x","total_time":"1s"}}` + "\n"
	if err := os.WriteFile(path, []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := fastConfig()
	cfg.JournalPath = path
	c := newTestCoordinator(t, cfg)
	startWorker(t, c, "w1", nil)
	got, err := c.CheckDistributed(context.Background(), ck)
	if err != nil {
		t.Fatalf("CheckDistributed: %v", err)
	}
	assertAgrees(t, got, want, "cube-era journal")
	if m := c.Metrics(); m.JournalReplayed != 0 || m.TasksCompleted != 1 {
		t.Fatalf("replayed %d and completed %d checks, want 0 and 1", m.JournalReplayed, m.TasksCompleted)
	}
}

// TestFleetOverHTTP runs the full lease protocol over real HTTP —
// poll, heartbeat, result through the coordinator's Handler — and
// asserts agreement with the serial oracle.
func TestFleetOverHTTP(t *testing.T) {
	c := newTestCoordinator(t, fastConfig())
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	for _, id := range []string{"h1", "h2"} {
		w, err := NewWorker(WorkerConfig{
			ID:           id,
			URL:          ts.URL,
			PollInterval: 5 * time.Millisecond,
			Client:       RetryClient{Timeout: 2 * time.Second},
		})
		if err != nil {
			t.Fatalf("NewWorker(%s): %v", id, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			w.Run(ctx)
		}()
		t.Cleanup(func() {
			cancel()
			<-done
		})
	}

	ck := testCheck("msn", "T0", "sc")
	want := serialOracle(t, ck)
	got, err := c.CheckDistributed(context.Background(), ck)
	if err != nil {
		t.Fatalf("CheckDistributed: %v", err)
	}
	assertAgrees(t, got, want, "http transport")
}

// TestSingleFlightSharesFanOut: concurrent CheckDistributed calls for
// the same description must share one task.
func TestSingleFlightSharesFanOut(t *testing.T) {
	c := newTestCoordinator(t, fastConfig())

	ck := testCheck("ms2", "T0", "sc")
	want := serialOracle(t, ck)
	const callers = 4
	outs := make(chan Outcome, callers)
	for i := 0; i < callers; i++ {
		go func() {
			out, err := c.CheckDistributed(context.Background(), ck)
			if err != nil {
				out = Outcome{Result: job.Result{Error: err.Error()}}
			}
			outs <- out
		}()
	}
	// Every caller joins before any worker can answer the check.
	eventually(t, 2*time.Second, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		tk := c.tasks[ck.Fingerprint()]
		return tk != nil && tk.waiters == callers
	}, "callers never joined one task")
	startWorker(t, c, "w1", nil)
	for i := 0; i < callers; i++ {
		assertAgrees(t, <-outs, want, "single-flight")
	}
	if m := c.Metrics(); m.TasksCompleted != 1 {
		t.Fatalf("single-flight violated: %d tasks completed for one check", m.TasksCompleted)
	}
}

// TestStaleLocalSolveNotAcceptedIntoResubmission: a task claimed for a
// local solve can still be answered first by a late worker result. If
// its fingerprint is then resubmitted, the stale local outcome must be
// dropped as a duplicate, not accepted into the new task — accepting
// it would close the new task's done channel a second time when launch
// replays the journaled outcome.
func TestStaleLocalSolveNotAcceptedIntoResubmission(t *testing.T) {
	cfg := fastConfig()
	cfg.JournalPath = filepath.Join(t.TempDir(), "journal.jsonl")
	c := newTestCoordinator(t, cfg)
	ck := testCheck("msn", "T0", "sc")
	want := serialOracle(t, ck)

	old, fresh := c.join(ck)
	if !fresh {
		t.Fatal("first submission joined an existing task")
	}
	c.launch(old)
	if resp := c.Poll("w1"); resp.Task == nil {
		t.Fatal("no task leased to w1")
	}
	// Claim it for a local solve, as requeueLocked does on retry
	// exhaustion, then let the late worker result win.
	c.mu.Lock()
	old.state = "done"
	c.mu.Unlock()
	if !c.acceptOutcome(old.id, "w1", want, nil) {
		t.Fatal("late worker result for a locally claimed task was rejected")
	}

	// Resubmit, and run the stale local solve before launch.
	resub, fresh := c.join(ck)
	if !fresh || resub == old {
		t.Fatal("resubmission did not create a new task")
	}
	c.solveLocally(old)
	select {
	case <-resub.done:
		t.Fatal("stale local solve answered the resubmitted task")
	default:
	}
	c.launch(resub) // replays the journaled outcome; must not panic
	<-resub.done
	if resub.err != nil {
		t.Fatalf("resubmission: %v", resub.err)
	}
	assertAgrees(t, resub.outcome, want, "resubmission")
	if m := c.Metrics(); m.TasksCompleted != 1 || m.DupResults != 1 || m.JournalReplayed != 1 {
		t.Fatalf("metrics %+v, want 1 completed, 1 duplicate, 1 replayed", m)
	}
}
