// Package checkfence is a Go reproduction of CheckFence (Burckhardt,
// Alur, Martin: "CheckFence: Checking Consistency of Concurrent Data
// Types on Relaxed Memory Models", PLDI 2007).
//
// CheckFence takes the C implementation of a concurrent data type, a
// bounded symbolic test program, and a memory model, and decides
// whether every concurrent execution of the test is observationally
// equivalent to a serial execution — i.e. whether the data type
// appears to its clients to execute operations atomically. If not, it
// produces a counterexample trace.
//
// The pipeline (paper Fig. 3): the C code is compiled to the untyped
// load-store language LSL, operation calls are inlined and loops
// lazily unrolled, a light-weight range analysis bounds values, then
// thread-local semantics and the axiomatic memory model are encoded
// into one propositional formula solved by a built-in CDCL SAT
// solver. A specification is first mined by enumerating the
// observations of serial executions; the inclusion check then asks
// for a concurrent execution whose observation is not in that set.
//
// The five study-set implementations of the paper's Table 1 (ms2,
// msn, lazylist, harris, snark) are bundled; custom C implementations
// can be checked through DataType.
//
// Quick start:
//
//	res, err := checkfence.Check("msn", "T0", checkfence.Options{
//	    Model: checkfence.Relaxed,
//	})
//	if err != nil { ... }
//	if !res.Pass {
//	    fmt.Println(res.Cex) // counterexample trace
//	}
package checkfence

import (
	"fmt"
	"sort"

	"checkfence/internal/core"
	"checkfence/internal/harness"
	"checkfence/internal/job"
	"checkfence/internal/memmodel"
	"checkfence/internal/spec"
	"checkfence/internal/trace"
)

// Model is a memory consistency model (paper §2.3).
type Model = memmodel.Model

// The supported memory models.
const (
	// SequentialConsistency requires a global interleaving of all
	// loads and stores respecting program order.
	SequentialConsistency = memmodel.SequentialConsistency
	// Relaxed is the paper's conservative approximation of SPARC
	// TSO/PSO/RMO, Alpha, and IBM 370/390/z: it relaxes ordering and
	// store atomicity as described in §2.3, and is the model fences
	// are placed against.
	Relaxed = memmodel.Relaxed
	// Serial treats operations as atomic; it defines the
	// specification side of the check.
	Serial = memmodel.Serial
	// TSO and PSO instantiate the framework for the stronger SPARC
	// models the paper names in §2.3.3 (extension): TSO relaxes only
	// store→load order, PSO additionally store→store.
	TSO = memmodel.TSO
	PSO = memmodel.PSO
)

// ParseModel converts "sc", "relaxed", or "serial" to a Model.
func ParseModel(s string) (Model, error) { return memmodel.Parse(s) }

// SpecSource selects how the specification (observation set) is
// obtained.
type SpecSource = core.SpecSource

// Specification sources.
const (
	// SpecSAT mines the observation set from the implementation with
	// the iterative SAT procedure of §3.2 (the default).
	SpecSAT = core.SpecSAT
	// SpecRef enumerates it from a built-in sequential reference
	// implementation (the paper's fast "refset" path).
	SpecRef = core.SpecRef
)

// Options configures a check. The zero value checks under sequential
// consistency with SAT-mined specifications and the range analysis
// enabled. Deadline and ConflictBudget bound the check's resources; a
// budgeted check that cannot finish reports VerdictUnknown instead of
// hanging.
type Options = core.Options

// Result is the outcome of a check. Verdict is three-valued: pass,
// fail (Cex holds the decoded counterexample and SeqBug tells whether
// the failure is already present in serial executions), or unknown
// (the check exhausted a resource budget; Budget says which). Stats
// carries the quantities of the paper's Fig. 10 table.
type Result = core.Result

// Verdict is the three-valued outcome of a check.
type Verdict = core.Verdict

// The verdicts.
const (
	VerdictPass    = core.VerdictPass
	VerdictFail    = core.VerdictFail
	VerdictUnknown = core.VerdictUnknown
)

// BudgetReport explains a VerdictUnknown result: the configured
// budgets, the cause that stopped the check, and how long it ran.
type BudgetReport = core.BudgetReport

// Stats quantifies one check (unrolled size, CNF size, observation
// set size, and per-phase times).
type Stats = core.Stats

// Trace is a decoded counterexample: the executed accesses in memory
// order with symbolic addresses and values.
type Trace = trace.Trace

// Observation is one vector of operation argument and return values.
type Observation = spec.Observation

// ObservationSet is a set of observations (the specification).
type ObservationSet = spec.Set

// Check verifies a bundled implementation (by name, e.g. "msn",
// "lazylist-bug", "snark-nofence") against a test (a Fig. 8 name such
// as "Tpc2", or raw notation such as "e ( ed | de )").
func Check(impl, test string, opts Options) (*Result, error) {
	return core.Check(impl, test, opts)
}

// Job is one check of a suite: an implementation name, a test name,
// and the per-check options.
type Job = core.Job

// SuiteResult pairs a suite job with its outcome.
type SuiteResult = core.SuiteResult

// SuiteOptions configures CheckSuite (parallelism, cancellation
// context, spec cache sharing, completion callback).
type SuiteOptions = core.SuiteOptions

// SpecCache memoizes mined observation sets across checks. The
// specification is model-independent (paper §3.2), so a suite checking
// one (implementation, test) pair under several memory models mines
// once. Safe for concurrent use; reusable across suites.
type SpecCache = core.SpecCache

// NewSpecCache returns an empty observation-set cache. A non-empty dir
// enables an on-disk mirror that persists sets across processes.
func NewSpecCache(dir string) *SpecCache { return core.NewSpecCache(dir) }

// CacheStats is a snapshot of a SpecCache's cumulative traffic (hits,
// misses, quarantined entries).
type CacheStats = core.CacheStats

// Gate admission-controls units of work across independent CheckSuite
// calls: every unit (a single check or a whole model-sweep group)
// acquires a slot before running. Several concurrent suites sharing
// one Gate — the checkfenced daemon's batches — are bounded by one
// global concurrency limit instead of multiplying their pool sizes.
type Gate = core.Gate

// NewGate returns a Gate admitting n concurrent units (n <= 0 is
// treated as 1).
func NewGate(n int) Gate { return core.NewGate(n) }

// CheckSuite runs many checks on a bounded worker pool (SuiteOptions
// .Parallelism, default GOMAXPROCS) and returns their results in job
// order, independent of completion order. Observation sets are mined
// at most once per (implementation, test, bounds, spec source) via a
// shared cache. Jobs identical in everything but Model (Serial and
// fault-injected jobs aside) are checked as one model-sweep group: one
// shared selector-guarded encoding, solved per model under assumption
// literals with learned clauses carried across the sweep. Verdicts and
// observation sets are identical to running each job alone with Check;
// a check that needs separate budgets per model runs each model as its
// own suite.
func CheckSuite(jobs []Job, opts SuiteOptions) []SuiteResult {
	return core.RunSuite(jobs, opts)
}

// Operation describes one operation of a custom data type: the
// mnemonic used in test notation (e.g. "e", "d") and the C function it
// calls. The function's first parameter must be a pointer to the
// shared object; NumArgs value parameters follow; an out-parameter
// pointer comes last when HasOut is set.
type Operation = job.Op

// DataType describes a custom implementation to check: complete C
// source (the bundled sync primitives cas/dcas/lock/unlock can be
// included with SyncSource), the initialization function, the global
// object passed to every operation, the operation signatures, and
// optionally a built-in reference Kind ("queue", "set", "deque")
// enabling SpecRef mining. It is the inline program of the daemon's
// wire format.
type DataType = job.Program

// SyncSource returns the C source of the bundled synchronization
// library (cas, dcas, lock, unlock and the lock_t type), for
// inclusion in custom data type sources.
func SyncSource() string { return harness.SyncSource() }

// CheckDataType verifies a custom data type against a test given in
// Fig. 8 notation (e.g. "( e | d )" with the data type's mnemonics).
func CheckDataType(dt DataType, testNotation string, opts Options) (*Result, error) {
	if len(dt.Ops) == 0 {
		return nil, fmt.Errorf("checkfence: data type %q has no operations", dt.Name)
	}
	impl := dt.Impl()
	test, err := harness.ParseTest("custom", testNotation, impl)
	if err != nil {
		return nil, err
	}
	return core.CheckImpl(impl, test, opts)
}

// Implementations lists the bundled implementation names.
func Implementations() []string {
	m := harness.Implementations()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Tests lists the Fig. 8 test names applicable to a bundled
// implementation.
func Tests(implName string) ([]string, error) {
	impl, err := harness.Get(implName)
	if err != nil {
		return nil, err
	}
	tests, err := harness.TestsFor(impl)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(tests))
	for n := range tests {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}
