// Package harness assembles CheckFence verification problems: it
// pairs the implementations of the paper's Table 1 with the symbolic
// tests of Fig. 8, builds the LSL test harness (initialization thread,
// operation invocations with nondeterministic arguments, observation
// registers), and prepares the unrolled threads for the encoder.
package harness

import (
	"embed"
	"fmt"
	"regexp"
	"strings"
	"sync"
)

//go:embed testdata/*.c
var sources embed.FS

// OpSig describes one operation of a concurrent data type.
type OpSig struct {
	Mnemonic string // Fig. 8 shorthand: e, d, a, c, r, al, ar, rl, rr
	Func     string // C function name
	NumArgs  int    // nondeterministic value arguments (beyond the object)
	HasRet   bool   // boolean return value
	HasOut   bool   // out-parameter cell (e.g. dequeue's pvalue)
}

// Impl is one implementation under test (paper Table 1).
type Impl struct {
	Name     string
	Kind     string // "queue", "set", or "deque" (selects the reference implementation)
	Source   string // complete C translation unit (sync library included)
	InitFunc string
	Obj      string // name of the global object the harness passes to operations
	Ops      []OpSig
}

// OpByMnemonic finds an operation signature.
func (im *Impl) OpByMnemonic(m string) (OpSig, bool) {
	for _, op := range im.Ops {
		if op.Mnemonic == m {
			return op, true
		}
	}
	return OpSig{}, false
}

// Mnemonics returns the operation shorthands, longest first (for the
// greedy test-string parser).
func (im *Impl) Mnemonics() []string {
	out := make([]string, len(im.Ops))
	for i, op := range im.Ops {
		out[i] = op.Mnemonic
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if len(out[j]) > len(out[i]) {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func mustRead(name string) string {
	b, err := sources.ReadFile("testdata/" + name)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// SyncSource returns the embedded synchronization library (cas, dcas,
// lock, unlock and the lock_t type) that most bundled sources begin
// with.
func SyncSource() string { return mustRead("sync.c") }

var queueOps = []OpSig{
	{Mnemonic: "e", Func: "enqueue", NumArgs: 1},
	{Mnemonic: "d", Func: "dequeue", HasRet: true, HasOut: true},
}

var setOps = []OpSig{
	{Mnemonic: "a", Func: "add", NumArgs: 1, HasRet: true},
	{Mnemonic: "c", Func: "contains", NumArgs: 1, HasRet: true},
	{Mnemonic: "r", Func: "remove", NumArgs: 1, HasRet: true},
}

var dequeOps = []OpSig{
	{Mnemonic: "al", Func: "pushLeft", NumArgs: 1},
	{Mnemonic: "ar", Func: "pushRight", NumArgs: 1},
	{Mnemonic: "rl", Func: "popLeft", HasRet: true, HasOut: true},
	{Mnemonic: "rr", Func: "popRight", HasRet: true, HasOut: true},
}

// registry is the immutable-after-init implementation table, built
// exactly once. The *Impl values are shared and must be treated as
// read-only; the suite scheduler reads them from many goroutines.
var (
	registryOnce sync.Once
	registry     map[string]*Impl
)

func implRegistry() map[string]*Impl {
	registryOnce.Do(func() { registry = buildImplementations() })
	return registry
}

// Implementations returns the study set of paper Table 1, keyed by
// mnemonic name. Variants:
//
//	<name>          fences as published in the paper (or derived)
//	<name>-nofence  all memory ordering fences removed
//	lazylist-bug    the published pseudocode's missing initialization
//	snark           the algorithm as published, i.e. with its bugs
//
// The registry is built once and shared; the returned map is a fresh
// copy (safe for callers to mutate) but the *Impl values are shared
// read-only structures, safe for concurrent readers.
func Implementations() map[string]*Impl {
	reg := implRegistry()
	out := make(map[string]*Impl, len(reg))
	for k, v := range reg {
		out[k] = v
	}
	return out
}

func buildImplementations() map[string]*Impl {
	syncSrc := SyncSource()
	m := map[string]*Impl{}

	add := func(im *Impl) { m[im.Name] = im }

	msn := &Impl{
		Name: "msn", Kind: "queue",
		Source:   syncSrc + mustRead("msn.c"),
		InitFunc: "init_queue", Obj: "q", Ops: queueOps,
	}
	add(msn)
	add(variant(msn, "msn-nofence", StripFences))
	// Commit-point-annotated variant for the Fig. 12 baseline method;
	// it carries its own cas/cas_commit definitions.
	msnCommit := &Impl{
		Name: "msn-commit", Kind: "queue",
		Source:   mustRead("msn_commit.c"),
		InitFunc: "init_queue", Obj: "q", Ops: queueOps,
	}
	add(msnCommit)
	add(variant(msnCommit, "msn-commit-nofence", StripFences))

	ms2 := &Impl{
		Name: "ms2", Kind: "queue",
		Source:   syncSrc + mustRead("ms2.c"),
		InitFunc: "init_queue", Obj: "q", Ops: queueOps,
	}
	add(ms2)
	add(variant(ms2, "ms2-nofence", StripUnprotectedFences))

	lazy := &Impl{
		Name: "lazylist", Kind: "set",
		Source:   syncSrc + mustRead("lazylist.c"),
		InitFunc: "init_set", Obj: "set", Ops: setOps,
	}
	add(lazy)
	add(variant(lazy, "lazylist-nofence", StripUnprotectedFences))
	add(variant(lazy, "lazylist-bug", RemoveBugLines))

	harris := &Impl{
		Name: "harris", Kind: "set",
		Source:   syncSrc + mustRead("harris.c"),
		InitFunc: "init_set", Obj: "set", Ops: setOps,
	}
	add(harris)
	add(variant(harris, "harris-nofence", StripFences))

	snark := &Impl{
		Name: "snark", Kind: "deque",
		Source:   syncSrc + mustRead("snark.c"),
		InitFunc: "init_deque", Obj: "dq", Ops: dequeOps,
	}
	add(snark)
	add(variant(snark, "snark-nofence", StripFences))

	return m
}

func variant(base *Impl, name string, transform func(string) string) *Impl {
	v := *base
	v.Name = name
	v.Source = transform(base.Source)
	return &v
}

var fenceCallRe = regexp.MustCompile(`fence\("(load|store)-(load|store)"\);`)

// StripFences removes every fence() call from the source (the
// "algorithm as originally published" variant — the originals assume
// sequential consistency and carry no fences, paper §4).
func StripFences(src string) string {
	return fenceCallRe.ReplaceAllString(src, ";")
}

// StripUnprotectedFences removes the fences of the data structure
// code but keeps those inside lock() and unlock(), which belong to
// the synchronization library (the paper notes lock-based code is
// insensitive to the model *because* lock/unlock contain the needed
// fences).
func StripUnprotectedFences(src string) string {
	var out []string
	inSync := false
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(line, "void lock(") || strings.HasPrefix(line, "void unlock(") {
			inSync = true
		}
		if inSync {
			out = append(out, line)
			if line == "}" {
				inSync = false
			}
			continue
		}
		out = append(out, fenceCallRe.ReplaceAllString(line, ";"))
	}
	return strings.Join(out, "\n")
}

// CountFences returns the number of fence() calls in the source.
func CountFences(src string) int {
	return len(fenceCallRe.FindAllString(src, -1))
}

// RemoveFence removes the k-th (0-based) fence call, leaving the rest
// intact. Used by the fence-necessity experiment and the fence
// inference extension.
func RemoveFence(src string, k int) string {
	i := -1
	return fenceCallRe.ReplaceAllStringFunc(src, func(match string) string {
		i++
		if i == k {
			return ";"
		}
		return match
	})
}

// RemoveFences removes the fence calls whose (0-based) occurrence
// index is in drop.
func RemoveFences(src string, drop map[int]bool) string {
	i := -1
	return fenceCallRe.ReplaceAllStringFunc(src, func(match string) string {
		i++
		if drop[i] {
			return ";"
		}
		return match
	})
}

// RemoveBugLines deletes the source lines annotated with "BUG:",
// recreating published pseudocode defects (the lazylist missing
// 'marked' initialization of paper §4.1).
func RemoveBugLines(src string) string {
	lines := strings.Split(src, "\n")
	out := lines[:0]
	for _, l := range lines {
		if strings.Contains(l, "BUG:") {
			continue
		}
		out = append(out, l)
	}
	return strings.Join(out, "\n")
}

// Get looks up an implementation variant, including dynamic
// "-dropfence<k>" forms. The returned *Impl is shared and read-only;
// Get is safe for concurrent use.
func Get(name string) (*Impl, error) {
	impls := implRegistry()
	if im, ok := impls[name]; ok {
		return im, nil
	}
	if i := strings.LastIndex(name, "-dropfence"); i >= 0 {
		base, ok := impls[name[:i]]
		if !ok {
			return nil, fmt.Errorf("harness: unknown implementation %q", name[:i])
		}
		var k int
		if _, err := fmt.Sscanf(name[i+len("-dropfence"):], "%d", &k); err != nil {
			return nil, fmt.Errorf("harness: bad dropfence suffix in %q", name)
		}
		return variant(base, name, func(s string) string { return RemoveFence(s, k) }), nil
	}
	return nil, fmt.Errorf("harness: unknown implementation %q", name)
}
