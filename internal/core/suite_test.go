package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
	"checkfence/internal/spec"
)

// modelSweep builds the canonical small suite: one cheap
// (implementation, test) pair checked under all four models. The spec
// is model-independent, so a shared cache should mine exactly once.
func modelSweep(impl, test string) []Job {
	models := []memmodel.Model{
		memmodel.SequentialConsistency,
		memmodel.TSO,
		memmodel.PSO,
		memmodel.Relaxed,
	}
	jobs := make([]Job, len(models))
	for i, m := range models {
		jobs[i] = Job{Impl: impl, Test: test, Opts: Options{Model: m}}
	}
	return jobs
}

func requireAllRan(t *testing.T, results []SuiteResult) {
	t.Helper()
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d (%s/%s %v): %v", i, r.Job.Impl, r.Job.Test, r.Job.Opts.Model, r.Err)
		}
		if r.Res == nil {
			t.Fatalf("job %d: nil result", i)
		}
	}
}

// TestRunSuiteMatchesSerial locks in the core promise of the parallel
// engine: for the same jobs, serial and parallel runs produce
// identical verdicts and identical observation sets, and results[i]
// always corresponds to jobs[i].
func TestRunSuiteMatchesSerial(t *testing.T) {
	jobs := modelSweep("ms2", "T0")
	serial := RunSuite(jobs, SuiteOptions{Parallelism: 1})
	parallel := RunSuite(jobs, SuiteOptions{Parallelism: 4})
	requireAllRan(t, serial)
	requireAllRan(t, parallel)
	for i := range jobs {
		s, p := serial[i], parallel[i]
		if s.Job.Impl != jobs[i].Impl || s.Job.Opts.Model != jobs[i].Opts.Model ||
			p.Job.Impl != jobs[i].Impl || p.Job.Opts.Model != jobs[i].Opts.Model {
			t.Errorf("result %d not aligned with its job", i)
		}
		if s.Res.Model != jobs[i].Opts.Model || p.Res.Model != jobs[i].Opts.Model {
			t.Errorf("result %d ran under the wrong model", i)
		}
		if s.Res.Pass != p.Res.Pass || s.Res.SeqBug != p.Res.SeqBug {
			t.Errorf("job %d: serial pass=%v seqbug=%v, parallel pass=%v seqbug=%v",
				i, s.Res.Pass, s.Res.SeqBug, p.Res.Pass, p.Res.SeqBug)
		}
		if !s.Res.Spec.Equal(p.Res.Spec) {
			t.Errorf("job %d: observation sets differ between serial and parallel", i)
		}
		if s.Res.Stats.TotalTime <= 0 || p.Res.Stats.TotalTime <= 0 {
			t.Errorf("job %d: TotalTime not recorded (serial %v, parallel %v)",
				i, s.Res.Stats.TotalTime, p.Res.Stats.TotalTime)
		}
	}
}

// TestRunSuiteMinesOnce asserts the memoization contract for
// independent jobs: a suite checking the same (implementation, test,
// bounds) under several models mines the observation set exactly once,
// and every other job reports a cache hit. Each job runs as its own
// concurrent one-model suite over the shared cache — a sweep group
// mines once for the whole group and touches the cache once, which is
// a different (stronger) sharing contract.
func TestRunSuiteMinesOnce(t *testing.T) {
	jobs := fourModelJobs("ms2", "T0", Options{})
	var mined atomic.Int64
	cache := NewSpecCache("")
	results := runEach(jobs, SuiteOptions{SpecCache: cache})
	requireAllRan(t, results)
	hits, misses := 0, 0
	for _, r := range results {
		hits += r.Res.Stats.SpecCacheHits
		misses += r.Res.Stats.SpecCacheMisses
		if r.Res.Stats.BoundRounds != 1 {
			// The once-per-suite guarantee below relies on a single
			// mining request per job; a bounds growth would add more
			// (with distinct keys). ms2/T0 converges immediately.
			t.Fatalf("ms2/T0 took %d bound rounds, expected 1", r.Res.Stats.BoundRounds)
		}
	}
	if misses != 1 || hits != len(jobs)-1 {
		t.Errorf("cache traffic: %d misses, %d hits; want 1 and %d", misses, hits, len(jobs)-1)
	}
	if n := cache.Stats().Entries; n != 1 {
		t.Errorf("cache holds %d sets, want 1", n)
	}

	// The counting variant: route the same key through GetOrMine
	// directly and confirm the miner does not run again.
	set, _, out, err := cache.GetOrMine(fixedKey(t, jobs[0]), func() (*spec.Set, int, error) {
		mined.Add(1)
		return nil, 0, errors.New("must not re-mine")
	})
	if err != nil || !out.Hit || set == nil {
		t.Fatalf("GetOrMine after suite: outcome=%+v err=%v", out, err)
	}
	if mined.Load() != 0 {
		t.Errorf("miner ran %d times for a cached key", mined.Load())
	}
}

// fixedKey recomputes the spec-cache key RunSuite used for a job whose
// bounds converged at the initial (empty) unrolling bounds.
func fixedKey(t *testing.T, job Job) string {
	t.Helper()
	impl, err := harness.Get(job.Impl)
	if err != nil {
		t.Fatal(err)
	}
	test, err := harness.GetTest(impl, job.Test)
	if err != nil {
		t.Fatal(err)
	}
	return specKey(impl, test, map[string]int{}, job.Opts.SpecSource)
}

// TestRunSuiteCancellation: a cancelled context stops the suite —
// queued jobs never start and report ctx.Err().
func TestRunSuiteCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the suite starts: every job must be skipped
	jobs := modelSweep("ms2", "T0")
	results := RunSuite(jobs, SuiteOptions{Parallelism: 2, Context: ctx})
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d: err = %v, want context.Canceled", i, r.Err)
		}
		if r.Res != nil {
			t.Errorf("job %d: got a result from a cancelled suite", i)
		}
	}
}

// TestRunSuiteMidFlightCancellation cancels while checks are running
// and requires the suite to return promptly with every remaining job
// reporting the cancellation.
func TestRunSuiteMidFlightCancellation(t *testing.T) {
	// snark/Da is a multi-second check; cancellation must cut it short.
	jobs := []Job{
		{Impl: "snark", Test: "Da", Opts: Options{Model: memmodel.Relaxed}},
		{Impl: "snark", Test: "Da", Opts: Options{Model: memmodel.TSO}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	results := RunSuite(jobs, SuiteOptions{Parallelism: 2, Context: ctx})
	elapsed := time.Since(start)
	if elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v; solver stop predicate not honored", elapsed)
	}
	for i, r := range results {
		if r.Err == nil {
			// A job may legitimately finish before the cancel lands;
			// anything else must surface the cancellation.
			continue
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestRunSuiteResultCallback: OnResult fires once per job with the
// job's index, serialized.
func TestRunSuiteResultCallback(t *testing.T) {
	jobs := modelSweep("ms2", "T0")
	seen := make([]int, len(jobs))
	results := RunSuite(jobs, SuiteOptions{
		Parallelism: 4,
		OnResult: func(i int, r SuiteResult) {
			seen[i]++ // safe: calls are serialized by RunSuite
			if r.Job.Opts.Model != jobs[i].Opts.Model {
				t.Errorf("callback %d: job mismatch", i)
			}
		},
	})
	requireAllRan(t, results)
	for i, n := range seen {
		if n != 1 {
			t.Errorf("OnResult for job %d fired %d times", i, n)
		}
	}
}

// TestTotalTimeOnAllPaths: TotalTime must be recorded on a pass, on a
// counterexample, and on a sequential bug (the early-return paths).
func TestTotalTimeOnAllPaths(t *testing.T) {
	cases := []struct {
		impl, test string
		model      memmodel.Model
	}{
		{"ms2", "T0", memmodel.Relaxed},                         // pass
		{"msn-nofence", "T0", memmodel.PSO},                     // counterexample
		{"lazylist-bug", "Sac", memmodel.SequentialConsistency}, // serial runtime error
	}
	for _, c := range cases {
		res, err := Check(c.impl, c.test, Options{Model: c.model})
		if err != nil {
			t.Fatalf("%s/%s: %v", c.impl, c.test, err)
		}
		if res.Stats.TotalTime <= 0 {
			t.Errorf("%s/%s (pass=%v seqbug=%v): TotalTime = %v",
				c.impl, c.test, res.Pass, res.SeqBug, res.Stats.TotalTime)
		}
	}
}

// TestSpecCacheDisk: a second cache rooted at the same directory loads
// the mined set from disk instead of re-mining. Each job runs as its
// own one-model suite over the shared cache — the per-job hit/miss
// counts are the subject here.
func TestSpecCacheDisk(t *testing.T) {
	dir := t.TempDir()
	jobs := fourModelJobs("ms2", "T0", Options{})

	first := runEach(jobs, SuiteOptions{SpecCache: NewSpecCache(dir)})
	requireAllRan(t, first)
	files, err := filepath.Glob(filepath.Join(dir, "*.obs"))
	if err != nil || len(files) != 1 {
		t.Fatalf("disk mirror: files = %v, err = %v", files, err)
	}

	// A fresh cache over the same dir must serve the set without
	// mining: every job reports a hit, none a miss.
	second := runEach(jobs, SuiteOptions{SpecCache: NewSpecCache(dir)})
	requireAllRan(t, second)
	hits, misses := 0, 0
	for _, r := range second {
		hits += r.Res.Stats.SpecCacheHits
		misses += r.Res.Stats.SpecCacheMisses
	}
	if misses != 0 || hits != len(jobs) {
		t.Errorf("second run: %d misses, %d hits; want 0 and %d", misses, hits, len(jobs))
	}
	for i := range jobs {
		if !first[i].Res.Spec.Equal(second[i].Res.Spec) {
			t.Errorf("job %d: disk round-trip changed the observation set", i)
		}
	}
}

// TestSpecCacheForeignKeyDiskFile: a cache file whose embedded key
// does not match the requested problem (renamed, copied between
// directories, or written by a different key derivation) is a miss and
// gets re-mined, never silently reused.
func TestSpecCacheForeignKeyDiskFile(t *testing.T) {
	dir := t.TempDir()
	jobs := modelSweep("ms2", "T0")[:1]
	requireAllRan(t, RunSuite(jobs, SuiteOptions{SpecCache: NewSpecCache(dir)}))
	files, _ := filepath.Glob(filepath.Join(dir, "*.obs"))
	if len(files) != 1 {
		t.Fatalf("files = %v", files)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a file written for a different problem: same format,
	// wrong embedded key.
	lines := strings.SplitN(string(data), "\n", 3)
	if len(lines) != 3 || !strings.HasPrefix(lines[1], "key ") {
		t.Fatalf("unexpected cache file layout:\n%s", data)
	}
	lines[1] = "key " + strings.Repeat("0", 64)
	if err := os.WriteFile(files[0], []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	results := RunSuite(jobs, SuiteOptions{SpecCache: NewSpecCache(dir)})
	requireAllRan(t, results)
	if results[0].Res.Stats.SpecCacheMisses != 1 {
		t.Errorf("foreign-key file should be a miss; stats = %+v", results[0].Res.Stats)
	}
	// The re-mined set overwrote the foreign entry with the right key.
	data, err = os.ReadFile(files[0])
	if err != nil || strings.Contains(string(data), strings.Repeat("0", 64)) {
		t.Errorf("foreign entry not rewritten: %q, %v", data, err)
	}
}

// TestSpecCacheCorruptDiskFile: a damaged cache file is a miss, not an
// error — the set is re-mined and the file rewritten.
func TestSpecCacheCorruptDiskFile(t *testing.T) {
	dir := t.TempDir()
	jobs := modelSweep("ms2", "T0")[:1]
	requireAllRan(t, RunSuite(jobs, SuiteOptions{SpecCache: NewSpecCache(dir)}))
	files, _ := filepath.Glob(filepath.Join(dir, "*.obs"))
	if len(files) != 1 {
		t.Fatalf("files = %v", files)
	}
	if err := os.WriteFile(files[0], []byte("not an observation set\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	results := RunSuite(jobs, SuiteOptions{SpecCache: NewSpecCache(dir)})
	requireAllRan(t, results)
	if results[0].Res.Stats.SpecCacheMisses != 1 {
		t.Errorf("corrupt file should be a miss; stats = %+v", results[0].Res.Stats)
	}
	data, err := os.ReadFile(files[0])
	if err != nil || !strings.HasPrefix(string(data), "checkfence-obs") {
		t.Errorf("corrupt file not rewritten: %q, %v", data, err)
	}
}

// TestSpecCacheErrorNotCached: a mining failure must not poison the
// cache — the next request for the key mines again.
func TestSpecCacheErrorNotCached(t *testing.T) {
	cache := NewSpecCache("")
	boom := errors.New("boom")
	if _, _, _, err := cache.GetOrMine("k", func() (*spec.Set, int, error) {
		return nil, 0, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := cache.Stats().Entries; n != 0 {
		t.Fatalf("failed mining left %d entries", n)
	}
	want := spec.NewSet()
	set, _, out, err := cache.GetOrMine("k", func() (*spec.Set, int, error) {
		return want, 7, nil
	})
	if err != nil || out.Hit || set != want {
		t.Errorf("re-mine after failure: set=%v outcome=%+v err=%v", set, out, err)
	}
}
