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
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"checkfence/internal/core"
	"checkfence/internal/faultinject"
	"checkfence/internal/job"
)

func testCheck(impl, test, model string) job.Check {
	return job.Check{Program: job.Program{Name: impl}, Test: test, Model: model}
}

// serialOracle solves the undivided check in-process — the ground
// truth every distributed run must reproduce.
func serialOracle(t *testing.T, ck job.Check) Outcome {
	t.Helper()
	cj, err := ck.CoreJob()
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	res := core.RunSuite([]core.Job{cj}, core.SuiteOptions{Parallelism: 1})
	out := OutcomeFromResult(res[0].Res, res[0].Err)
	if out.Err != "" {
		t.Fatalf("oracle failed to run: %s", out.Err)
	}
	return out
}

// assertAgrees asserts the distributed outcome reproduces the oracle:
// same verdict bits, and for PASS a byte-identical observation set.
func assertAgrees(t *testing.T, got, want Outcome, label string) {
	t.Helper()
	if got.Err != "" {
		t.Fatalf("%s: distributed run errored: %s", label, got.Err)
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
		CubeDepth:      2,
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
// and a failing check, each fanned out over cubes to two workers,
// must reproduce the serial verdict and (for PASS) observation set.
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
		got, err := c.CheckDistributed(context.Background(), tc.ck)
		if err != nil {
			t.Fatalf("%s: CheckDistributed: %v", tc.label, err)
		}
		assertAgrees(t, got, want, tc.label)
	}
	m := c.Metrics()
	if m.TasksCompleted == 0 || m.TasksDispatched == 0 {
		t.Fatalf("no distributed work recorded: %+v", m)
	}
}

// TestFaultMatrix sweeps every network fault site across several
// seeds: three workers share one one-shot fault script, so exactly one
// injected failure strikes per run, and the aggregated verdict must
// still equal the serial oracle. Per-site metric assertions pin the
// degradation path that absorbed the fault.
func TestFaultMatrix(t *testing.T) {
	ck := testCheck("msn", "T0", "sc")
	want := serialOracle(t, ck)

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
				got, err := c.CheckDistributed(context.Background(), ck)
				if err != nil {
					t.Fatalf("CheckDistributed: %v", err)
				}
				assertAgrees(t, got, want, string(site))

				if script.Fired(site) == 0 {
					t.Fatalf("fault %s never fired (windowed occurrence never reached)", site)
				}
				m := c.Metrics()
				switch site {
				case faultinject.FleetWorkerCrash, faultinject.FleetDropResult:
					// The lease died with the fault; the janitor must have
					// reclaimed it and the cube must have been re-dispatched.
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

// TestPoisonQuarantine: a cube that kills every worker it touches must
// trip the circuit breaker after PoisonThreshold distinct victims and
// be solved locally — with the quarantine visible as the degradation
// cause, and the verdict still the serial one.
func TestPoisonQuarantine(t *testing.T) {
	cfg := fastConfig()
	cfg.Lease = 60 * time.Millisecond
	cfg.PoisonThreshold = 3
	cfg.MaxRetries = 10 // poison must trip before retry exhaustion
	c := newTestCoordinator(t, cfg)

	for i := 0; i < 3; i++ {
		startWorker(t, c, fmt.Sprintf("crasher%d", i), func(cfg *WorkerConfig) {
			cfg.Faults = &faultinject.Always{Sites: []faultinject.Site{faultinject.FleetWorkerCrash}}
		})
	}

	ck := testCheck("msn", "T0", "sc")
	ck.Backend = "rf" // single-cube fan-out: one poisoned task
	want := serialOracle(t, ck)
	got, err := c.CheckDistributed(context.Background(), ck)
	if err != nil {
		t.Fatalf("CheckDistributed: %v", err)
	}
	assertAgrees(t, got, want, "quarantine")
	if got.Degraded != "quarantine" {
		t.Fatalf("degradation cause = %q, want \"quarantine\"", got.Degraded)
	}
	m := c.Metrics()
	if m.Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1 (metrics: %+v)", m.Quarantines, m)
	}
}

// TestRetryExhaustionFallsBackLocally: with a single worker that
// always drops its results, the bounded retry budget must end in a
// local solve — degradation, never a lost verdict.
func TestRetryExhaustionFallsBackLocally(t *testing.T) {
	cfg := fastConfig()
	cfg.Lease = 60 * time.Millisecond
	cfg.MaxRetries = 2
	cfg.PoisonThreshold = 10 // keep the breaker out of this path
	c := newTestCoordinator(t, cfg)
	startWorker(t, c, "dropper", func(cfg *WorkerConfig) {
		cfg.Faults = &faultinject.Always{Sites: []faultinject.Site{faultinject.FleetDropResult}}
	})

	ck := testCheck("ms2", "T0", "sc")
	ck.Backend = "rf"
	want := serialOracle(t, ck)
	got, err := c.CheckDistributed(context.Background(), ck)
	if err != nil {
		t.Fatalf("CheckDistributed: %v", err)
	}
	assertAgrees(t, got, want, "local-fallback")
	if got.Degraded != "local-fallback" {
		t.Fatalf("degradation cause = %q, want \"local-fallback\"", got.Degraded)
	}
	if m := c.Metrics(); m.LocalFallbacks == 0 {
		t.Fatalf("LocalFallbacks = 0, want > 0 (metrics: %+v)", m)
	}
}

// TestStragglerSpeculation: a straggling worker keeps its lease alive
// by heartbeating, so only the speculation horizon can unstick the
// cube — a second copy goes to a faster worker, whose result wins.
func TestStragglerSpeculation(t *testing.T) {
	cfg := fastConfig()
	cfg.Lease = 400 * time.Millisecond // janitor every 100ms
	cfg.SpeculateAfter = 150 * time.Millisecond
	c := newTestCoordinator(t, cfg)

	slow := startWorker(t, c, "slow", func(cfg *WorkerConfig) {
		cfg.SlowDown = 5 * time.Second
	})

	ck := testCheck("msn", "T0", "sc")
	ck.Backend = "rf" // single cube: the straggler holds the whole check
	want := serialOracle(t, ck)

	resc := make(chan Outcome, 1)
	go func() {
		out, err := c.CheckDistributed(context.Background(), ck)
		if err != nil {
			out = Outcome{Err: err.Error()}
		}
		resc <- out
	}()

	// Let the straggler take the lease before the fast worker exists.
	eventually(t, 2*time.Second, func() bool { return slow.Stats().Polled == 1 },
		"straggler never leased the task")
	startWorker(t, c, "fast", nil)

	select {
	case got := <-resc:
		assertAgrees(t, got, want, "speculation")
	case <-time.After(4 * time.Second):
		t.Fatal("speculated task did not finish ahead of the straggler")
	}
	if m := c.Metrics(); m.Speculations == 0 {
		t.Fatalf("Speculations = 0, want > 0 (metrics: %+v)", m)
	}
}

// TestWorkerDraining: a worker that keeps losing leases must stop
// receiving work for the drain cooldown.
func TestWorkerDraining(t *testing.T) {
	cfg := fastConfig()
	cfg.Lease = 60 * time.Millisecond
	cfg.HealthWindow = 4
	cfg.DrainFailures = 2
	cfg.DrainCooldown = time.Hour // once drained, stays drained for the test
	cfg.MaxRetries = 10
	cfg.PoisonThreshold = 10
	c := newTestCoordinator(t, cfg)

	flaky := startWorker(t, c, "flaky", func(cfg *WorkerConfig) {
		cfg.Faults = &faultinject.Always{Sites: []faultinject.Site{faultinject.FleetWorkerCrash}}
	})

	// Two independent single-cube checks so the flaky worker can fail
	// twice (it may not re-lease a task it already failed).
	cks := []job.Check{testCheck("ms2", "T0", "sc"), testCheck("ms2", "T0", "tso")}
	for i := range cks {
		cks[i].Backend = "rf"
	}
	resc := make(chan error, len(cks))
	for _, ck := range cks {
		go func(ck job.Check) {
			_, err := c.CheckDistributed(context.Background(), ck)
			resc <- err
		}(ck)
	}

	// The flaky worker crashes both; its leases expire; health records
	// two failures.
	eventually(t, 2*time.Second, func() bool { return flaky.Stats().Polled >= 2 },
		"flaky worker never leased both tasks")
	eventually(t, 2*time.Second, func() bool {
		for _, h := range c.WorkerHealth() {
			if h.Worker == "flaky" && h.Failures >= 2 {
				return true
			}
		}
		return false
	}, "flaky worker's lease losses never reached its health window")

	if resp := c.Poll("flaky"); resp.Task != nil {
		t.Fatal("drained worker was granted a task")
	}
	if m := c.Metrics(); m.WorkersDrained == 0 {
		t.Fatalf("WorkersDrained = 0, want > 0 (metrics: %+v)", m)
	}

	// A healthy worker finishes the actual verdicts.
	startWorker(t, c, "healthy", nil)
	for range cks {
		if err := <-resc; err != nil {
			t.Fatalf("CheckDistributed: %v", err)
		}
	}
}

// TestCrashRecoveryJournal kills a coordinator mid-sweep (one of two
// cubes done), restarts from the journal, and asserts: the plan is
// not re-split, the finished cube is replayed rather than re-run, no
// (parent, cube) is recorded twice, and the final verdict plus
// observation set match the serial oracle.
func TestCrashRecoveryJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	ck := testCheck("msn", "T0", "sc")
	want := serialOracle(t, ck)
	fp := ck.Fingerprint()

	// --- first life: plan 2 cubes, finish exactly one, crash. -------
	cfg := fastConfig()
	cfg.CubeDepth = 1
	cfg.JournalPath = path
	c1, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c1.CheckDistributed(ctx1, ck)
		errc <- err
	}()
	eventually(t, 2*time.Second, func() bool { return c1.QueueDepth() == 2 },
		"fan-out never planned")

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

	cancel1() // the waiter is abandoned; the coordinator "crashes"
	if err := <-errc; err == nil {
		t.Fatal("abandoned CheckDistributed returned without error")
	}
	c1.Close()

	plans, dones := readJournal(t, path, fp)
	if plans != 1 {
		t.Fatalf("journal has %d plan records, want 1", plans)
	}
	if len(dones) != 1 {
		t.Fatalf("journal has %d done records after the crash, want 1", len(dones))
	}

	// --- second life: replay, run only the missing cube. ------------
	c2, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator (restart): %v", err)
	}
	defer c2.Close()
	w2 := startWorker(t, c2, "w2", nil)

	got, err := c2.CheckDistributed(context.Background(), ck)
	if err != nil {
		t.Fatalf("CheckDistributed (restart): %v", err)
	}
	assertAgrees(t, got, want, "crash recovery")

	if m := c2.Metrics(); m.JournalReplayed != 1 {
		t.Fatalf("JournalReplayed = %d, want 1", m.JournalReplayed)
	}
	// The worker bumps Completed only after its result report returns,
	// which can be after CheckDistributed has already aggregated it.
	eventually(t, 2*time.Second, func() bool { return w2.Stats().Completed >= 1 },
		"second-life worker never completed a cube")
	if comp := w2.Stats().Completed; comp != 1 {
		t.Fatalf("second life re-ran %d cubes, want 1 (the missing one)", comp)
	}
	plans, dones = readJournal(t, path, fp)
	if plans != 1 {
		t.Fatalf("restart re-planned: %d plan records", plans)
	}
	if len(dones) != 2 {
		t.Fatalf("journal has %d done records, want 2", len(dones))
	}
	seen := map[int]int{}
	for _, idx := range dones {
		seen[idx]++
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("cube %d recorded %d times in the journal (double count)", idx, n)
		}
	}
}

// readJournal counts plan records and collects done-record cube
// indices for the parent.
func readJournal(t *testing.T, path, parent string) (plans int, dones []int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("opening journal: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Parent != parent {
			continue
		}
		switch rec.Event {
		case "plan":
			plans++
		case "done":
			dones = append(dones, rec.Task)
		}
	}
	return plans, dones
}

// TestJournalSkipsCorruptTail: a torn write (crash mid-append) must
// degrade to re-running the cube, not to adopting a corrupt outcome.
func TestJournalSkipsCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	ck := testCheck("ms2", "T0", "sc")
	fp := ck.Fingerprint()

	j, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WritePlan(fp, []job.Check{ck, ck}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"event":"done","parent":"` + fp + `","task":1,"outcome":{"verdi`)
	f.Close()

	j2, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	plan, outs, err := j2.Replay(fp)
	if err != nil {
		t.Fatalf("Replay over a torn tail: %v", err)
	}
	if len(plan) != 2 {
		t.Fatalf("replayed plan of %d checks, want 2", len(plan))
	}
	if len(outs) != 0 {
		t.Fatalf("torn done record was adopted: %v", outs)
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
// the same description must share one fan-out.
func TestSingleFlightSharesFanOut(t *testing.T) {
	c := newTestCoordinator(t, fastConfig())
	startWorker(t, c, "w1", nil)

	ck := testCheck("ms2", "T0", "sc")
	want := serialOracle(t, ck)
	const callers = 4
	outs := make(chan Outcome, callers)
	for i := 0; i < callers; i++ {
		go func() {
			out, err := c.CheckDistributed(context.Background(), ck)
			if err != nil {
				out = Outcome{Err: err.Error()}
			}
			outs <- out
		}()
	}
	for i := 0; i < callers; i++ {
		assertAgrees(t, <-outs, want, "single-flight")
	}
	// One fan-out's worth of tasks, not four.
	if m := c.Metrics(); m.TasksCompleted > 4 {
		t.Fatalf("single-flight violated: %d tasks completed for one 4-cube check", m.TasksCompleted)
	}
}
