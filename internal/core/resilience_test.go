package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"checkfence/internal/encode"
	"checkfence/internal/faultinject"
	"checkfence/internal/lsl"
	"checkfence/internal/memmodel"
	"checkfence/internal/sat"
	"checkfence/internal/spec"
)

// TestLadderDefault pins the shape of the derived degradation ladder.
func TestLadderDefault(t *testing.T) {
	names := func(rungs []Rung) string {
		var parts []string
		for _, r := range rungs {
			parts = append(parts, r.Name)
		}
		return strings.Join(parts, ",")
	}
	if got := names(Options{}.ladder()); got != "configured,no-preprocess" {
		t.Errorf("default ladder = %s", got)
	}
	noPre := encode.DefaultConfig()
	noPre.Preprocess = false
	if got := names(Options{Encode: &noPre}.ladder()); got != "configured" {
		t.Errorf("no-preprocess ladder = %s", got)
	}
	rf := Options{Backend: BackendRF}
	if got := names(rf.ladder()); got != "rf,configured,no-preprocess" {
		t.Errorf("rf ladder = %s", got)
	}
	last := rf.ladder()[2]
	if !last.NoPreprocess || last.Backend != BackendSAT {
		t.Errorf("last rung = %+v, want SAT without preprocessing", last)
	}
}

// TestDeadlineUnknownWithReport: a deadline far below what snark/Da
// needs must yield VerdictUnknown with a populated BudgetReport — not
// an error, and not a hang.
func TestDeadlineUnknownWithReport(t *testing.T) {
	res, err := Check("snark", "Da", Options{
		Model:    memmodel.Relaxed,
		Deadline: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("deadline exhaustion must be a verdict, got error: %v", err)
	}
	if res.Verdict != VerdictUnknown || res.Pass {
		t.Fatalf("verdict = %v (pass=%v), want unknown", res.Verdict, res.Pass)
	}
	if res.Budget == nil || len(res.Budget.Rungs) == 0 {
		t.Fatalf("budget report = %+v, want populated rungs", res.Budget)
	}
	if res.Budget.Deadline != 50*time.Millisecond {
		t.Errorf("report deadline = %v", res.Budget.Deadline)
	}
	for _, r := range res.Budget.Rungs {
		if r.Budget != sat.BudgetDeadline.String() {
			t.Errorf("rung %q exhausted %q (%s), want deadline", r.Name, r.Budget, r.Err)
		}
	}
}

// TestConflictBudgetUnknown: a one-conflict budget starves every rung
// of a non-trivial check; each rung's report names the conflicts axis.
func TestConflictBudgetUnknown(t *testing.T) {
	res, err := Check("harris", "Saa", Options{
		Model:          memmodel.SequentialConsistency,
		ConflictBudget: 1,
	})
	if err != nil {
		t.Fatalf("budget exhaustion must be a verdict, got error: %v", err)
	}
	if res.Verdict != VerdictUnknown {
		t.Fatalf("verdict = %v, want unknown", res.Verdict)
	}
	if res.Budget == nil || len(res.Budget.Rungs) != 2 {
		t.Fatalf("budget report = %+v, want the two default serial rungs", res.Budget)
	}
	for _, r := range res.Budget.Rungs {
		if r.Budget != sat.BudgetConflicts.String() {
			t.Errorf("rung %q exhausted %q (%s), want conflicts", r.Name, r.Budget, r.Err)
		}
	}
}

// TestLadderDegradedVerdict: a one-shot injected budget fault fails
// one rung; the retry runs clean and the final verdict is identical to
// a fault-free run, with the degradation recorded in the report.
func TestLadderDegradedVerdict(t *testing.T) {
	opts := Options{Model: memmodel.SequentialConsistency}
	clean, err := Check("harris", "Saa", opts)
	if err != nil {
		t.Fatal(err)
	}
	script := faultinject.NewScript(1, 1, faultinject.SolverBudget)
	opts.Faults = script
	res, err := Check("harris", "Saa", opts)
	if err != nil {
		t.Fatalf("recoverable fault must not error: %v", err)
	}
	if script.Fired(faultinject.SolverBudget) != 1 {
		t.Fatalf("injected budget fault never fired (instance too small?)")
	}
	if res.Verdict != clean.Verdict || res.Pass != clean.Pass {
		t.Errorf("degraded verdict %v/%v differs from clean %v/%v",
			res.Verdict, res.Pass, clean.Verdict, clean.Pass)
	}
	if res.Budget == nil || len(res.Budget.Rungs) == 0 {
		t.Fatalf("degraded run has no budget report")
	}
	if got := res.Budget.Rungs[0].Budget; got != sat.BudgetInjected.String() {
		t.Errorf("rung exhausted %q, want injected", got)
	}
	if !res.Spec.Equal(clean.Spec) {
		t.Errorf("degraded run mined a different observation set")
	}
}

// TestAbortInDeferredEmission: an Abort that first fires inside the
// deferred transitivity emission, after Encode has returned, must
// yield VerdictUnknown, reported like a deadline on every rung. The
// formula is incomplete there, so no solve of it may answer: a solver
// that ignored the emission's error would decide the check without
// transitivity.
func TestAbortInDeferredEmission(t *testing.T) {
	cfg := encode.DefaultConfig()
	fired := 0
	cfg.Abort = func() error {
		if !inTransitivityEmission() {
			return nil
		}
		fired++
		return fmt.Errorf("test abort: %w", &sat.ErrBudget{Kind: sat.BudgetDeadline})
	}
	res, err := Check("msn", "T0", Options{Model: memmodel.Relaxed, Encode: &cfg})
	if err != nil {
		t.Fatalf("an aborted emission must be a verdict, got error: %v", err)
	}
	if fired == 0 {
		t.Fatal("the abort never fired inside the deferred emission")
	}
	if res.Verdict != VerdictUnknown || res.Pass {
		t.Fatalf("verdict = %v (pass=%v), want unknown", res.Verdict, res.Pass)
	}
	if res.Budget == nil || len(res.Budget.Rungs) == 0 {
		t.Fatalf("budget report = %+v, want populated rungs", res.Budget)
	}
	for _, r := range res.Budget.Rungs {
		if r.Budget != sat.BudgetDeadline.String() {
			t.Errorf("rung %q exhausted %q (%s), want deadline", r.Name, r.Budget, r.Err)
		}
	}
}

// inTransitivityEmission reports whether the caller runs inside the
// encoder's deferred transitivity emission.
func inTransitivityEmission() bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*Encoder).assertTransitivity") {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestDeadlineSuiteContinues: one job exhausting its deadline must not
// take the rest of the suite with it — the starved job reports
// VerdictUnknown and the remaining jobs complete normally.
func TestDeadlineSuiteContinues(t *testing.T) {
	jobs := []Job{
		{Impl: "snark", Test: "Da", Opts: Options{Model: memmodel.Relaxed, Deadline: 50 * time.Millisecond}},
		{Impl: "ms2", Test: "T0", Opts: Options{Model: memmodel.SequentialConsistency}},
	}
	results := RunSuite(jobs, SuiteOptions{Parallelism: 2})
	if results[0].Err != nil {
		t.Fatalf("starved job errored: %v", results[0].Err)
	}
	if v := results[0].Res.Verdict; v != VerdictUnknown {
		t.Fatalf("starved job verdict = %v, want unknown", v)
	}
	if results[0].Res.Budget == nil {
		t.Error("starved job has no budget report")
	}
	if results[1].Err != nil {
		t.Fatalf("unbudgeted job errored: %v", results[1].Err)
	}
	if v := results[1].Res.Verdict; v == VerdictUnknown {
		t.Errorf("unbudgeted job verdict = %v", v)
	}
}

// TestSuitePanicIsolation: a check whose pipeline panics (injected at
// the encoder) becomes that job's error — typed, with the recovered
// value and stack — while the other jobs run to completion.
func TestSuitePanicIsolation(t *testing.T) {
	jobs := []Job{
		{Impl: "ms2", Test: "T0", Opts: Options{
			Model:  memmodel.SequentialConsistency,
			Faults: &faultinject.Always{Sites: []faultinject.Site{faultinject.EncodePanic}},
		}},
		{Impl: "ms2", Test: "T0", Opts: Options{Model: memmodel.SequentialConsistency}},
	}
	results := RunSuite(jobs, SuiteOptions{Parallelism: 2})
	if results[0].Err == nil {
		t.Fatalf("panicking job reported no error (res=%+v)", results[0].Res)
	}
	var rp *faultinject.RecoveredPanic
	if !errors.As(results[0].Err, &rp) {
		t.Fatalf("err = %v, want a *faultinject.RecoveredPanic", results[0].Err)
	}
	if faultinject.InjectedSite(rp) != faultinject.EncodePanic {
		t.Errorf("recovered %v, want the injected encoder panic", rp.Value)
	}
	if len(rp.Stack) == 0 {
		t.Error("recovered panic carries no stack")
	}
	if results[1].Err != nil || results[1].Res == nil {
		t.Fatalf("sibling job did not complete: %v", results[1].Err)
	}
}

// mustMine is a MineFunc returning a fixed set.
func mustMine(set *spec.Set) MineFunc {
	return func(*spec.Set, int) (*spec.Set, int, error) { return set, 1, nil }
}

func smallSet() *spec.Set {
	s := spec.NewSet()
	s.Add(spec.Observation{lsl.Int(1), lsl.Undef()})
	s.Add(spec.Observation{lsl.Int(2), lsl.Int(3)})
	return s
}

// TestSpecCacheQuarantine: truncated and bit-flipped disk entries are
// treated as misses, quarantined to <name>.bad, and counted — never
// parsed into a wrong specification.
func TestSpecCacheQuarantine(t *testing.T) {
	corruptions := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bitflip", func(b []byte) []byte { b[len(b)-3] |= 0x80; return b }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			want := smallSet()
			if _, _, _, err := NewSpecCache(dir).GetOrMine("k1", mustMine(want)); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "k1.obs")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mut(data), 0o644); err != nil {
				t.Fatal(err)
			}

			cache := NewSpecCache(dir) // fresh in-memory state, same disk
			mined := 0
			set, _, out, err := cache.GetOrMine("k1", func(*spec.Set, int) (*spec.Set, int, error) {
				mined++
				return want, 1, nil
			})
			if err != nil || mined != 1 {
				t.Fatalf("corrupt entry not re-mined: mined=%d err=%v", mined, err)
			}
			if !out.Corrupt || out.Hit {
				t.Errorf("outcome = %+v, want corrupt miss", out)
			}
			if cache.CorruptCount() != 1 {
				t.Errorf("CorruptCount = %d", cache.CorruptCount())
			}
			if !set.Equal(want) {
				t.Errorf("re-mined set differs")
			}
			if _, err := os.Stat(path + ".bad"); err != nil {
				t.Errorf("corrupt file not quarantined: %v", err)
			}
			// The re-mined set replaces the damaged file.
			if reread, ok := cache.loadDisk("k1", &CacheOutcome{}); !ok || !reread.Equal(want) {
				t.Errorf("rewritten entry unreadable")
			}
		})
	}
}

// TestSpecCacheCheckpointResume: a failed mine that produced a partial
// set leaves a <key>.part checkpoint; the next mine of the key is
// seeded with it and the checkpoint is cleared on success.
func TestSpecCacheCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	partial := smallSet()
	boom := errors.New("interrupted")

	cache := NewSpecCache(dir)
	set, iters, _, err := cache.GetOrMine("k", func(*spec.Set, int) (*spec.Set, int, error) {
		return partial, 3, boom
	})
	if !errors.Is(err, boom) || set != partial || iters != 3 {
		t.Fatalf("failed mine = (%v, %d, %v)", set, iters, err)
	}
	partPath := filepath.Join(dir, "k.part")
	if _, err := os.Stat(partPath); err != nil {
		t.Fatalf("no checkpoint after failed mine: %v", err)
	}

	full := spec.NewSet()
	full.Add(spec.Observation{lsl.Int(1), lsl.Undef()})
	full.Add(spec.Observation{lsl.Int(2), lsl.Int(3)})
	full.Add(spec.Observation{lsl.Int(9), lsl.Int(9)})
	resumedWith := -1
	got, _, out, err := NewSpecCache(dir).GetOrMine("k", func(resume *spec.Set, resumeIters int) (*spec.Set, int, error) {
		resumedWith = resumeIters
		if resume == nil || !resume.Equal(partial) {
			t.Errorf("resume set = %v, want the checkpointed partial", resume)
		}
		return full, resumeIters + 2, nil
	})
	if err != nil || !got.Equal(full) {
		t.Fatalf("resumed mine = (%v, %v)", got, err)
	}
	if !out.Resumed || resumedWith != 3 {
		t.Errorf("outcome = %+v, resume iterations = %d, want resumed from 3", out, resumedWith)
	}
	if _, err := os.Stat(partPath); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("checkpoint not cleared on success: %v", err)
	}
}

// TestSpecCacheMinerPanicReleasesWaiters: a panicking miner must
// release the single-flight entry (no deadlocked waiters) before the
// panic unwinds to the suite's recovery layer.
func TestSpecCacheMinerPanicReleasesWaiters(t *testing.T) {
	cache := NewSpecCache("")
	func() {
		defer func() { recover() }()
		cache.GetOrMine("k", func(*spec.Set, int) (*spec.Set, int, error) {
			panic(faultinject.Injected{Site: faultinject.MinePanic})
		})
		t.Fatal("miner panic swallowed")
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		set, _, _, err := cache.GetOrMine("k", mustMine(smallSet()))
		if err != nil || set == nil {
			t.Errorf("post-panic mine = (%v, %v)", set, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("single-flight entry leaked by panicking miner: waiter deadlocked")
	}
}

// TestChaosSweep drives the whole suite engine through every fault
// site with deterministic seeds: every job must end in a clean verdict
// or a typed error — no unrecovered panic, no deadlock — and one-shot
// faults at recoverable sites must reproduce the fault-free verdicts
// exactly.
func TestChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is slow")
	}
	jobs := []Job{
		{Impl: "ms2", Test: "T0", Opts: Options{Model: memmodel.SequentialConsistency}},
		{Impl: "ms2", Test: "T0", Opts: Options{Model: memmodel.Relaxed}},
	}
	baseline := RunSuite(jobs, SuiteOptions{Parallelism: 2})
	requireAllRan(t, baseline)

	for _, site := range faultinject.Sites() {
		for _, seed := range []int64{1, 7} {
			t.Run(string(site)+"/"+string('0'+rune(seed)), func(t *testing.T) {
				dir := t.TempDir()
				// Prime the disk mirror so CacheCorrupt has entries to
				// damage on the chaos pass.
				prime := RunSuite(jobs, SuiteOptions{Parallelism: 2, SpecCacheDir: dir})
				requireAllRan(t, prime)

				script := faultinject.NewScript(seed, 1, site)
				results := RunSuite(jobs, SuiteOptions{
					Parallelism:  2,
					SpecCacheDir: dir,
					Faults:       script,
				})
				for i, r := range results {
					if r.Err != nil {
						var rp *faultinject.RecoveredPanic
						typed := errors.As(r.Err, &rp) ||
							errors.Is(r.Err, sat.ErrBudgetExhausted) ||
							errors.Is(r.Err, spec.ErrSolverUnknown)
						if !typed {
							t.Errorf("job %d: untyped error %v", i, r.Err)
						}
						if faultinject.Recoverable(site) {
							t.Errorf("job %d: recoverable site %s errored: %v", i, site, r.Err)
						}
						continue
					}
					if r.Res == nil {
						t.Errorf("job %d: no result and no error", i)
						continue
					}
					if v := r.Res.Verdict; v != VerdictPass && v != VerdictFail && v != VerdictUnknown {
						t.Errorf("job %d: invalid verdict %v", i, v)
					}
					if faultinject.Recoverable(site) {
						if r.Res.Verdict != baseline[i].Res.Verdict {
							t.Errorf("job %d: verdict %v under recoverable fault, clean run had %v",
								i, r.Res.Verdict, baseline[i].Res.Verdict)
						}
						if !r.Res.Spec.Equal(baseline[i].Res.Spec) {
							t.Errorf("job %d: observation set drifted under recoverable fault", i)
						}
					}
				}
			})
		}
	}
}
