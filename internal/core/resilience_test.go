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
	if res.Budget == nil {
		t.Fatal("UNKNOWN without a budget report")
	}
	if res.Budget.Deadline != 50*time.Millisecond {
		t.Errorf("report deadline = %v", res.Budget.Deadline)
	}
	if res.Budget.Cause != sat.BudgetDeadline.String() {
		t.Errorf("cause %q, want deadline", res.Budget.Cause)
	}
}

// TestConflictBudgetUnknown: a one-conflict budget starves a
// non-trivial check; the report names the conflicts axis.
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
	if res.Budget == nil {
		t.Fatal("UNKNOWN without a budget report")
	}
	if res.Budget.ConflictBudget != 1 || res.Budget.Cause != sat.BudgetConflicts.String() {
		t.Errorf("budget report = %+v, want conflict budget 1 and cause conflicts", res.Budget)
	}
}

// TestInjectedBudgetUnknown: a one-shot injected budget fault ends the
// check UNKNOWN with cause "injected". The check makes one attempt, so
// no verdict may come out of a run whose solve was cut short.
func TestInjectedBudgetUnknown(t *testing.T) {
	script := faultinject.NewScript(1, 1, faultinject.SolverBudget)
	res, err := Check("harris", "Saa", Options{
		Model:  memmodel.SequentialConsistency,
		Faults: script,
	})
	if err != nil {
		t.Fatalf("an injected budget fault must be a verdict, got error: %v", err)
	}
	if script.Fired(faultinject.SolverBudget) != 1 {
		t.Fatalf("injected budget fault never fired (instance too small?)")
	}
	if res.Verdict != VerdictUnknown || res.Pass {
		t.Fatalf("verdict = %v (pass=%v), want unknown", res.Verdict, res.Pass)
	}
	if res.Budget == nil || res.Budget.Cause != sat.BudgetInjected.String() {
		t.Errorf("budget report = %+v, want cause injected", res.Budget)
	}
}

// TestAbortInEncoding: an Abort that first fires inside an encoder's
// value-axiom loop, in the middle of a phase, must yield
// VerdictUnknown, reported like a deadline. The formula is incomplete
// there, so no solve of it may decide the check.
func TestAbortInEncoding(t *testing.T) {
	cfg := encode.DefaultConfig()
	fired := 0
	cfg.Abort = func() error {
		if !inValueAxioms() {
			return nil
		}
		fired++
		return fmt.Errorf("test abort: %w", &sat.ErrBudget{Kind: sat.BudgetDeadline})
	}
	res, err := Check("msn", "T0", Options{Model: memmodel.Relaxed, Encode: &cfg})
	if err != nil {
		t.Fatalf("an aborted encoding must be a verdict, got error: %v", err)
	}
	if fired == 0 {
		t.Fatal("the abort never fired inside the value axioms")
	}
	if res.Verdict != VerdictUnknown || res.Pass {
		t.Fatalf("verdict = %v (pass=%v), want unknown", res.Verdict, res.Pass)
	}
	if res.Budget == nil || res.Budget.Cause != sat.BudgetDeadline.String() {
		t.Fatalf("budget report = %+v, want cause deadline", res.Budget)
	}
}

// inValueAxioms reports whether the caller runs inside an encoder's
// value axioms.
func inValueAxioms() bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*Encoder).assertValueAxioms") {
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
	return func() (*spec.Set, int, error) { return set, 1, nil }
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
			set, _, out, err := cache.GetOrMine("k1", func() (*spec.Set, int, error) {
				mined++
				return want, 1, nil
			})
			if err != nil || mined != 1 {
				t.Fatalf("corrupt entry not re-mined: mined=%d err=%v", mined, err)
			}
			if !out.Corrupt || out.Hit {
				t.Errorf("outcome = %+v, want corrupt miss", out)
			}
			if n := cache.Stats().Corrupt; n != 1 {
				t.Errorf("Stats().Corrupt = %d", n)
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

// TestSpecCacheFailedMineWritesNothing: a failed mine under a cache
// directory leaves no file behind, even when the miner hands back the
// observations it had found, and the next GetOrMine of the key mines
// again, from scratch, and stores the same set a direct mine yields.
func TestSpecCacheFailedMineWritesNothing(t *testing.T) {
	dir := t.TempDir()
	want := smallSet()
	boom := errors.New("interrupted")

	cache := NewSpecCache(dir)
	if _, _, _, err := cache.GetOrMine("k", func() (*spec.Set, int, error) {
		return want, 3, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failed mine err = %v, want boom", err)
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Fatalf("failed mine left files behind: %v", names)
	}

	for _, c := range []*SpecCache{cache, NewSpecCache(dir)} {
		mined := 0
		got, iters, out, err := c.GetOrMine("k", func() (*spec.Set, int, error) {
			mined++
			return smallSet(), 2, nil
		})
		if err != nil || mined != 1 || out.Hit || iters != 2 {
			t.Fatalf("re-mine = (mined %d, iterations %d, outcome %+v, err %v), want one fresh mine of 2",
				mined, iters, out, err)
		}
		if !got.Equal(want) {
			t.Errorf("re-mined set %v, want %v", got.All(), want.All())
		}
		if names := dirNames(t, dir); len(names) != 1 || names[0] != "k.obs" {
			t.Errorf("after the re-mine: %v, want only k.obs", names)
		}
		os.Remove(filepath.Join(dir, "k.obs"))
	}
}

// TestSpecCacheMinerPanicReleasesWaiters: a panicking miner must
// release the single-flight entry (no deadlocked waiters) before the
// panic unwinds to the suite's recovery layer.
func TestSpecCacheMinerPanicReleasesWaiters(t *testing.T) {
	cache := NewSpecCache("")
	func() {
		defer func() { recover() }()
		cache.GetOrMine("k", func() (*spec.Set, int, error) {
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
// or a typed error — no unrecovered panic, no deadlock. One-shot
// faults at recoverable sites must reproduce the fault-free verdicts
// exactly, and a one-shot budget fault must end exactly one job
// UNKNOWN with cause "injected" while every other job reproduces its
// fault-free verdict.
func TestChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is slow")
	}
	// msn/T0's inclusion solves run past the solver's periodic budget
	// checkpoint, where SolverBudget fires; ms2/T0's finish before it.
	jobs := []Job{
		{Impl: "msn", Test: "T0", Opts: Options{Model: memmodel.SequentialConsistency}},
		{Impl: "msn", Test: "T0", Opts: Options{Model: memmodel.Relaxed}},
	}
	baseline := RunSuite(jobs, SuiteOptions{Parallelism: 2})
	requireAllRan(t, baseline)

	for _, site := range faultinject.Sites() {
		for _, seed := range []int64{1, 7} {
			t.Run(string(site)+"/"+string('0'+rune(seed)), func(t *testing.T) {
				dir := t.TempDir()
				// Prime the disk mirror so CacheCorrupt has entries to
				// damage on the chaos pass.
				prime := RunSuite(jobs, SuiteOptions{Parallelism: 2, SpecCache: NewSpecCache(dir)})
				requireAllRan(t, prime)

				script := faultinject.NewScript(seed, 1, site)
				results := RunSuite(jobs, SuiteOptions{
					Parallelism: 2,
					SpecCache:   NewSpecCache(dir),
					Faults:      script,
				})
				budget := site == faultinject.SolverBudget
				exact := faultinject.Recoverable(site) || budget
				unknown := 0
				for i, r := range results {
					if r.Err != nil {
						var rp *faultinject.RecoveredPanic
						typed := errors.As(r.Err, &rp) ||
							errors.Is(r.Err, sat.ErrBudgetExhausted) ||
							errors.Is(r.Err, spec.ErrSolverUnknown)
						if !typed {
							t.Errorf("job %d: untyped error %v", i, r.Err)
						}
						if exact {
							t.Errorf("job %d: site %s errored: %v", i, site, r.Err)
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
					if budget && r.Res.Verdict == VerdictUnknown {
						unknown++
						if b := r.Res.Budget; b == nil || b.Cause != sat.BudgetInjected.String() {
							t.Errorf("job %d: UNKNOWN with budget report %+v, want cause injected", i, b)
						}
						continue
					}
					if exact {
						if r.Res.Verdict != baseline[i].Res.Verdict {
							t.Errorf("job %d: verdict %v under fault at %s, clean run had %v",
								i, r.Res.Verdict, site, baseline[i].Res.Verdict)
						}
						if !r.Res.Spec.Equal(baseline[i].Res.Spec) {
							t.Errorf("job %d: observation set drifted under fault at %s", i, site)
						}
					}
				}
				if budget && unknown != 1 {
					t.Errorf("%d jobs UNKNOWN under a one-shot budget fault, want exactly 1", unknown)
				}
			})
		}
	}
}
