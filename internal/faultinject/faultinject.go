// Package faultinject provides deterministic, seed-driven fault
// injection for the check pipeline, plus the shared error types the
// panic-isolation layer uses when it recovers an injected (or real)
// crash.
//
// The hook points are plain interface calls gated on a nil check — no
// build tags — so production binaries pay one pointer comparison per
// site and tests can sweep every site with a scripted Faults value:
//
//	sat.Solver (via SetFaults / encode.Config.Faults):
//	    SolverAlloc  — panic while allocating a variable (NewVar)
//	    SolverBudget — force a typed budget exhaustion out of Solve
//	                   (the check ends UNKNOWN with cause "injected")
//	    SolvePanic   — panic inside the CDCL search loop
//	encode.Encoder (via encode.Config.Faults):
//	    EncodePanic  — panic at the start of Encode
//	internal/spec (via spec.Strategy.Faults):
//	    MinePanic    — panic inside the specification-mining loop
//	core.SpecCache (via SpecCache.SetFaults / core.Options.Faults):
//	    CacheCorrupt — flip a byte of an on-disk entry before parsing
//
// Every implementation of Faults must be safe for concurrent use: the
// suite worker pool's checks all consult the same value.
package faultinject

import (
	"fmt"
	"sync"
)

// Site names one fault-injection hook point.
type Site string

// The registered fault sites. Sites returns them all, in the order a
// sweep should visit them.
const (
	SolverAlloc  Site = "solver-alloc"
	SolverBudget Site = "solver-budget"
	SolvePanic   Site = "solve-panic"
	EncodePanic  Site = "encode-panic"
	MinePanic    Site = "mine-panic"
	CacheCorrupt Site = "cache-corrupt"
)

// Sites returns every registered fault site. The chaos sweep iterates
// this list so a newly added site is exercised without editing the
// test.
func Sites() []Site {
	return []Site{SolverAlloc, SolverBudget, SolvePanic, EncodePanic, MinePanic, CacheCorrupt}
}

// Recoverable reports whether a fault at the site is expected to be
// absorbed — the run still ends in a verdict bit-identical to a
// fault-free run. Only a corrupt cache entry is: it is quarantined and
// re-mined. A forced budget exhaustion ends its check UNKNOWN, and the
// other sites (injected panics, alloc failures) end in a typed error.
func Recoverable(s Site) bool {
	return s == CacheCorrupt
}

// Faults decides, per occurrence, whether the fault at a site fires.
// Implementations must be safe for concurrent use and cheap: hot
// paths (variable allocation, the solve loop) consult them.
type Faults interface {
	Fire(site Site) bool
}

// Injected is the panic value raised at the panic-style sites
// (SolverAlloc, SolvePanic, EncodePanic, MinePanic), so recovery
// layers and tests can tell an injected crash from a genuine one.
type Injected struct {
	Site Site
}

func (i Injected) String() string {
	return fmt.Sprintf("faultinject: injected panic at site %q", i.Site)
}

// RecoveredPanic is the typed error the panic-isolation layer (a
// suite worker's unit of work) returns when it recovers a panic: the
// recovered value plus the stack captured at the recovery point. It is
// an internal error, never a verdict.
type RecoveredPanic struct {
	Value any
	Stack []byte
}

func (e *RecoveredPanic) Error() string {
	return fmt.Sprintf("panic recovered: %v", e.Value)
}

// InjectedSite returns the site of an injected panic wrapped in err
// (or carried as a raw recovered value), and "" when the value is a
// genuine crash.
func InjectedSite(v any) Site {
	switch x := v.(type) {
	case Injected:
		return x.Site
	case *RecoveredPanic:
		return InjectedSite(x.Value)
	case error:
		return ""
	}
	return ""
}

// Script is a deterministic, seed-driven Faults implementation. Each
// armed site fires exactly once, at an occurrence index derived from
// the seed (within [0, Window)), then disarms — so a fault hits one
// check and the others run clean. A Window of 1
// makes every armed site fire on its first occurrence.
type Script struct {
	mu     sync.Mutex
	target map[Site]uint64 // occurrence index at which to fire
	seen   map[Site]uint64
	fired  map[Site]int
}

// NewScript arms the given sites with firing occurrences derived
// deterministically from seed. window bounds the occurrence index
// (<= 0 selects 1: fire on first occurrence).
func NewScript(seed int64, window int, sites ...Site) *Script {
	if window <= 0 {
		window = 1
	}
	s := &Script{
		target: make(map[Site]uint64, len(sites)),
		seen:   make(map[Site]uint64),
		fired:  make(map[Site]int),
	}
	for _, site := range sites {
		s.target[site] = splitmix(uint64(seed), site) % uint64(window)
	}
	return s
}

// splitmix derives a per-site pseudo-random value from the seed and
// the site name (splitmix64 over a simple string hash).
func splitmix(seed uint64, site Site) uint64 {
	x := seed
	for i := 0; i < len(site); i++ {
		x = x*31 + uint64(site[i])
	}
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Fire implements Faults: it reports true exactly once per armed
// site, at the seed-derived occurrence.
func (s *Script) Fire(site Site) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	target, armed := s.target[site]
	if !armed {
		return false
	}
	n := s.seen[site]
	s.seen[site] = n + 1
	if n != target {
		return false
	}
	delete(s.target, site) // one-shot: disarm
	s.fired[site]++
	return true
}

// Fired returns how many times the site has fired (0 or 1 for a
// Script).
func (s *Script) Fired(site Site) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired[site]
}

// Seen returns how many occurrences of the site have been observed.
func (s *Script) Seen(site Site) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen[site]
}

// Always fires the given sites on every occurrence (never disarms).
// Useful for exercising a hook point unconditionally.
type Always struct {
	Sites []Site

	mu    sync.Mutex
	count map[Site]int
}

// Fire implements Faults.
func (a *Always) Fire(site Site) bool {
	for _, s := range a.Sites {
		if s == site {
			a.mu.Lock()
			if a.count == nil {
				a.count = map[Site]int{}
			}
			a.count[site]++
			a.mu.Unlock()
			return true
		}
	}
	return false
}

// Fired returns how many times the site has fired.
func (a *Always) Fired(site Site) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.count[site]
}
