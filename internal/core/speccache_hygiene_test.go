package core

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"checkfence/internal/memmodel"
	"checkfence/internal/spec"
)

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestSpecCacheSweepsStaleTemps: temp files orphaned by a crashed
// writer, and the .part mining checkpoints older builds left, are
// removed when the cache opens; live entries are kept.
func TestSpecCacheSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := []string{"abc123.obs-tmp4567", "def456.part-tmp1", "feed.tmp9", "beef789.part"}
	for _, name := range stale {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "feedface.obs"), []byte("entry"), 0o644); err != nil {
		t.Fatal(err)
	}

	NewSpecCache(dir)

	names := dirNames(t, dir)
	if len(names) != 1 || names[0] != "feedface.obs" {
		t.Errorf("after sweep: %v, want only feedface.obs", names)
	}
}

// TestWriteAtomicCleansUpOnError: a failing write leaves neither the
// destination nor a temp file behind.
func TestWriteAtomicCleansUpOnError(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	err := writeAtomic(dir, "key.obs", func(w io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("writeAtomic error = %v, want boom", err)
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Errorf("error path left files behind: %v", names)
	}
}

// TestWriteAtomicPublishes: a successful write is visible under the
// final name with no temp residue.
func TestWriteAtomicPublishes(t *testing.T) {
	dir := t.TempDir()
	if err := writeAtomic(dir, "key.obs", func(w io.Writer) error {
		_, err := io.WriteString(w, "payload")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	names := dirNames(t, dir)
	if len(names) != 1 || names[0] != "key.obs" {
		t.Fatalf("after write: %v, want only key.obs", names)
	}
	data, err := os.ReadFile(filepath.Join(dir, "key.obs"))
	if err != nil || string(data) != "payload" {
		t.Errorf("content = %q, %v", data, err)
	}
}

// TestSpecCacheStats: the cumulative counters reflect cache traffic
// across calls (the view /metrics exposes).
func TestSpecCacheStats(t *testing.T) {
	c := NewSpecCache("")
	mine := func() (*spec.Set, int, error) {
		s := spec.NewSet()
		return s, 1, nil
	}
	if _, _, _, err := c.GetOrMine("k1", mine); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.GetOrMine("k1", mine); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss then 1 hit", st)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

// countingGate wraps a Gate and records the maximum concurrency it
// ever admitted.
type countingGate struct {
	inner Gate
	mu    sync.Mutex
	cur   int
	max   int
}

func (g *countingGate) Acquire(ctx context.Context) error {
	if err := g.inner.Acquire(ctx); err != nil {
		return err
	}
	g.mu.Lock()
	g.cur++
	if g.cur > g.max {
		g.max = g.cur
	}
	g.mu.Unlock()
	return nil
}

func (g *countingGate) Release() {
	g.mu.Lock()
	g.cur--
	g.mu.Unlock()
	g.inner.Release()
}

// TestGateBoundsAcrossSuites: two concurrent RunSuite calls sharing
// one single-slot Gate never run two units at once — the admission
// control the checkfenced daemon relies on to bound concurrent batches.
// The jobs share a model but not a pair, so each is a unit of its own.
func TestGateBoundsAcrossSuites(t *testing.T) {
	gate := &countingGate{inner: NewGate(1)}
	var jobs []Job
	for _, p := range [][2]string{{"ms2", "T0"}, {"ms2", "T1"}, {"msn", "T0"}, {"ms2-nofence", "T0"}} {
		jobs = append(jobs, Job{Impl: p[0], Test: p[1],
			Opts: Options{Model: memmodel.SequentialConsistency}})
	}
	var wg sync.WaitGroup
	resCh := make(chan []SuiteResult, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resCh <- RunSuite(jobs, SuiteOptions{Parallelism: 4, Gate: gate})
		}()
	}
	wg.Wait()
	close(resCh)
	for results := range resCh {
		requireAllRan(t, results)
		for i, r := range results {
			if !r.Res.Pass {
				t.Errorf("job %d failed under gating", i)
			}
		}
	}
	if gate.max != 1 {
		t.Errorf("max concurrent units = %d, want 1", gate.max)
	}
}

// TestGateCancelledAcquire: a cancelled context surfaces as the
// jobs' error instead of hanging on the gate.
func TestGateCancelledAcquire(t *testing.T) {
	gate := NewGate(1)
	ctx, cancel := context.WithCancel(context.Background())
	// Occupy the only slot so the suite's acquire must block.
	if err := gate.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	defer gate.Release()
	cancel()
	results := RunSuite([]Job{{Impl: "ms2", Test: "T0"}},
		SuiteOptions{Parallelism: 1, Gate: gate, Context: ctx})
	if len(results) != 1 || !errors.Is(results[0].Err, context.Canceled) {
		t.Errorf("results = %+v, want context.Canceled", results)
	}
}
