package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"checkfence/internal/faultinject"
	"checkfence/internal/harness"
	"checkfence/internal/spec"
)

// SpecCache memoizes mined observation sets across checks. The paper
// (§3.2) notes the specification is model-independent: S(T,I) is
// defined by serial executions only, so a suite that checks the same
// (implementation, test) pair under sc, tso, pso, and relaxed needs
// to mine once, not four times. The cache is concurrency-safe and
// single-flight: when several suite workers need the same set, one
// mines and the rest wait for it.
//
// Keys cover everything mining depends on: the implementation source,
// the test structure, the loop unrolling bounds, and the spec source
// (SAT mining vs. reference enumeration). An optional directory
// mirrors the sets on disk (spec.Set serialization), so they survive
// the process and are reused across runs.
//
// The disk mirror is hardened against corruption: an entry that no
// longer parses (truncated write, bit rot, foreign key) is quarantined
// to <name>.bad and treated as a miss, so one damaged file costs a
// re-mine, never a wrong specification or a crash. A failed mine
// writes nothing: the next request for the key mines from scratch.
type SpecCache struct {
	mu      sync.Mutex
	entries map[string]*specEntry
	dir     string
	faults  faultinject.Faults
	corrupt int
	hits    int
	misses  int
}

type specEntry struct {
	done       chan struct{}
	set        *spec.Set
	iterations int
	ok         bool
}

// MineFunc mines an observation set, returning it with the number of
// enumeration iterations spent.
type MineFunc func() (*spec.Set, int, error)

// CacheOutcome describes how a GetOrMine request was served.
type CacheOutcome struct {
	// Hit: the set came from the cache (memory or disk), not mine.
	Hit bool
	// Corrupt: a corrupt disk entry was quarantined while serving this
	// request.
	Corrupt bool
}

// NewSpecCache returns an empty cache. dir, when non-empty, enables
// the on-disk mirror (the directory is created on first store).
// Opening a cache sweeps temp files orphaned by a crashed or killed
// writer, so a long-lived daemon's cache directory does not accumulate
// them.
func NewSpecCache(dir string) *SpecCache {
	c := &SpecCache{entries: map[string]*specEntry{}, dir: dir}
	c.sweepStaleTemps()
	return c
}

// sweepStaleTemps removes leftover atomic-write temp files from the
// cache directory, and the .part mining checkpoints older builds left
// there, which nothing reads. Keys are hex digests and live entries
// use only the .obs/.bad suffixes, so a "-tmp" or ".tmp" substring can
// only come from an interrupted writer. A concurrently writing sibling
// process may lose its in-flight temp file to the sweep; its rename
// then fails and the store is retried by a later mine — stores are
// best-effort by contract.
func (c *SpecCache) sweepStaleTemps() {
	if c.dir == "" {
		return
	}
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if strings.Contains(name, "-tmp") || strings.Contains(name, ".tmp") || strings.HasSuffix(name, ".part") {
			os.Remove(filepath.Join(c.dir, name))
		}
	}
}

// SetFaults arms fault injection on the cache's disk reads (the
// CacheCorrupt site flips a byte of a loaded entry before parsing).
func (c *SpecCache) SetFaults(f faultinject.Faults) {
	c.mu.Lock()
	c.faults = f
	c.mu.Unlock()
}

func (c *SpecCache) getFaults() faultinject.Faults {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.faults
}

// CacheStats is a snapshot of a cache's cumulative traffic, across
// every check and suite that shared it. The per-check Stats fields
// report the same events scoped to one check; these totals back
// long-lived consumers such as the checkfenced /metrics endpoint.
type CacheStats struct {
	// Hits and Misses count GetOrMine requests served from the cache
	// (memory or disk) vs. mined fresh.
	Hits   int
	Misses int
	// Corrupt counts quarantined corrupt disk files.
	Corrupt int
	// Entries is the current number of in-memory entries.
	Entries int
}

// Stats returns the cache's cumulative traffic counters.
func (c *SpecCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:    c.hits,
		Misses:  c.misses,
		Corrupt: c.corrupt,
		Entries: len(c.entries),
	}
}

// GetOrMine returns the set for key, mining it with mine on a miss.
// Concurrent callers with the same key block until the first
// completes. Mining errors are never cached: the failing caller gets
// its own error (it may need live solver state to build a trace, as
// the sequential-bug path does), waiters re-mine for themselves, and
// the key becomes free again.
func (c *SpecCache) GetOrMine(key string, mine MineFunc) (set *spec.Set, iterations int, out CacheOutcome, err error) {
	set, iterations, out, err = c.getOrMine(key, mine)
	c.mu.Lock()
	if out.Hit {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	return set, iterations, out, err
}

func (c *SpecCache) getOrMine(key string, mine MineFunc) (set *spec.Set, iterations int, out CacheOutcome, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.done
		if e.ok {
			return e.set, e.iterations, CacheOutcome{Hit: true}, nil
		}
		// The miner failed; every caller needs its own failure
		// context, so mine uncached.
		set, iterations, err = mine()
		return set, iterations, out, err
	}
	e := &specEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	if diskSet, ok := c.loadDisk(key, &out); ok {
		e.set, e.ok = diskSet, true
		close(e.done)
		out.Hit = true
		return diskSet, 0, out, nil
	}

	set, iterations, err = func() (*spec.Set, int, error) {
		// A miner that panics (injected fault, genuine crash) must
		// release the single-flight entry before unwinding, or every
		// waiter on the key would block forever on done.
		defer func() {
			if p := recover(); p != nil {
				c.mu.Lock()
				delete(c.entries, key)
				c.mu.Unlock()
				close(e.done)
				panic(p)
			}
		}()
		return mine()
	}()
	if err != nil {
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
		close(e.done)
		return set, iterations, out, err
	}
	e.set, e.iterations, e.ok = set, iterations, true
	close(e.done)
	c.storeDisk(key, set)
	return set, iterations, out, nil
}

func (c *SpecCache) diskPath(key string) string {
	return filepath.Join(c.dir, key+".obs")
}

// quarantine moves an unparseable cache file aside as <name>.bad so it
// stops shadowing future stores but remains available for inspection,
// and counts it.
func (c *SpecCache) quarantine(path string) {
	if err := os.Rename(path, path+".bad"); err != nil {
		// Renaming failed (e.g. read-only directory); remove so the
		// corrupt bytes at least stop being re-read. Best-effort.
		os.Remove(path)
	}
	c.mu.Lock()
	c.corrupt++
	c.mu.Unlock()
}

func (c *SpecCache) loadDisk(key string, out *CacheOutcome) (*spec.Set, bool) {
	if c.dir == "" {
		return nil, false
	}
	path := c.diskPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if f := c.getFaults(); f != nil && f.Fire(faultinject.CacheCorrupt) && len(data) > 0 {
		data[len(data)/2] ^= 0x40
	}
	set, err := spec.ReadSetKeyed(bytes.NewReader(data), key)
	if err != nil {
		// A truncated, bit-flipped, legacy, or foreign-key file must
		// never supply a specification; quarantine it and re-mine.
		c.quarantine(path)
		out.Corrupt = true
		return nil, false
	}
	return set, true
}

// writeAtomic durably writes the bytes produced by write to dir/name:
// a unique temp file is filled, fsynced, and renamed over the target,
// and the directory is fsynced after the rename. A crash at any point
// leaves either the old entry or the new one — never a torn file, and
// never a rename the filesystem could lose on power failure. The temp
// file is removed on every error path so failed stores do not
// accumulate in a long-lived cache directory.
func writeAtomic(dir, name string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(dir, name+"-tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		os.Remove(tmpName)
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

func (c *SpecCache) storeDisk(key string, set *spec.Set) {
	if c.dir == "" {
		return
	}
	// Disk mirroring is best-effort: a failure costs re-mining in a
	// later process, never correctness.
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	writeAtomic(c.dir, key+".obs", func(w io.Writer) error {
		_, err := set.WriteKeyed(w, key)
		return err
	})
}

// specKey derives the cache key for one mining problem. It hashes the
// implementation source (not just the name: variants and custom data
// types share names at times), the full test structure, the unrolling
// bounds, and the spec source.
func specKey(impl *harness.Impl, test *harness.Test, bounds map[string]int, src SpecSource) string {
	h := sha256.New()
	io.WriteString(h, impl.Name)
	io.WriteString(h, "\x00")
	io.WriteString(h, impl.InitFunc)
	io.WriteString(h, "\x00")
	io.WriteString(h, impl.Obj)
	io.WriteString(h, "\x00")
	io.WriteString(h, impl.Source)
	io.WriteString(h, "\x00")
	fmt.Fprintf(h, "%v\x00%v\x00", impl.Ops, test.Init)
	fmt.Fprintf(h, "%v\x00", test.Threads)
	keys := make([]string, 0, len(bounds))
	for k := range bounds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d\x00", k, bounds[k])
	}
	fmt.Fprintf(h, "src=%d", src)
	return hex.EncodeToString(h.Sum(nil))
}
