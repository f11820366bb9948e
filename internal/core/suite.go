package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"checkfence/internal/faultinject"
	"checkfence/internal/harness"
)

// Job is one check of a suite: an implementation, a test, and the
// per-check options (model, spec source, budgets, ...).
type Job struct {
	Impl string
	Test string
	// ImplRef and TestRef, when non-nil, supply the resolved
	// implementation and test structures directly — the path inline
	// programs submitted over the checkfenced wire format take. Impl
	// and Test then only label results; when the refs are nil the
	// names resolve through the harness registry.
	ImplRef *harness.Impl
	TestRef *harness.Test
	Opts    Options
}

// resolve produces the implementation and test structures the job
// checks: the supplied references when present, the registry lookup
// otherwise.
func (j Job) resolve() (*harness.Impl, *harness.Test, error) {
	impl := j.ImplRef
	if impl == nil {
		var err error
		if impl, err = harness.Get(j.Impl); err != nil {
			return nil, nil, err
		}
	}
	test := j.TestRef
	if test == nil {
		var err error
		if test, err = harness.GetTest(impl, j.Test); err != nil {
			return nil, nil, err
		}
	}
	return impl, test, nil
}

// SuiteResult pairs a job with its outcome. Exactly one of Res/Err is
// meaningful: Err is non-nil when the check failed to run (not when
// it found a counterexample — that is a successful check with
// Res.Pass == false).
type SuiteResult struct {
	Job Job
	Res *Result
	Err error
}

// SuiteOptions configures RunSuite.
type SuiteOptions struct {
	// Parallelism bounds the number of concurrently running checks;
	// <= 0 means GOMAXPROCS.
	Parallelism int
	// Context, when non-nil, cancels the suite: queued jobs are not
	// started and in-flight SAT solves stop at their next check
	// point, both reporting ctx.Err().
	Context context.Context
	// SpecCache shares mined observation sets across the suite's
	// jobs (and, if the caller reuses it, across suites). When nil, a
	// fresh cache is created per suite, rooted at SpecCacheDir.
	SpecCache *SpecCache
	// SpecCacheDir enables the on-disk observation-set mirror of the
	// implicitly created cache. Ignored when SpecCache is non-nil.
	SpecCacheDir string
	// OnResult, when non-nil, is invoked as each job finishes, with
	// the job's index. Calls are serialized but arrive in completion
	// order, not job order.
	OnResult func(index int, r SuiteResult)
	// Faults arms deterministic fault injection on every job that does
	// not set its own, and on the suite's spec cache (tests and chaos
	// runs only).
	Faults faultinject.Faults
	// Sweep controls model-sweep grouping: under SweepAuto (the
	// default), jobs identical in everything but Model are checked on
	// one shared selector-guarded encoding, solved per model under
	// assumptions (see sweep.go). SweepOff checks every job
	// independently. Individual jobs opt out with Options.Sweep.
	Sweep SweepMode
	// Gate, when non-nil, admission-controls the pool: every worker
	// acquires a slot before starting a unit of work (a single check
	// or a whole sweep group) and releases it afterwards. Several
	// concurrent RunSuite calls sharing one Gate — the checkfenced
	// daemon's batches — are thereby bounded by one global concurrency
	// limit instead of multiplying their pool sizes.
	Gate Gate
}

// Gate bounds concurrent work across independent RunSuite calls. An
// implementation must be safe for concurrent use.
type Gate interface {
	// Acquire blocks until a slot is free or the context is done,
	// returning ctx.Err() in the latter case.
	Acquire(ctx context.Context) error
	// Release frees a slot acquired by Acquire.
	Release()
}

// NewGate returns a Gate admitting n concurrent units (n <= 0 is
// treated as 1).
func NewGate(n int) Gate {
	if n <= 0 {
		n = 1
	}
	return make(chanGate, n)
}

type chanGate chan struct{}

func (g chanGate) Acquire(ctx context.Context) error {
	select {
	case g <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g chanGate) Release() { <-g }

// RunSuite checks all jobs on a bounded worker pool and returns their
// results with deterministic ordering: results[i] corresponds to
// jobs[i] regardless of completion order. Observation sets are mined
// at most once per (implementation, test, bounds, spec source) via
// the shared spec cache; per-check Stats report the cache traffic.
func RunSuite(jobs []Job, opts SuiteOptions) []SuiteResult {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	cache := opts.SpecCache
	if cache == nil {
		cache = NewSpecCache(opts.SpecCacheDir)
	}
	if opts.Faults != nil {
		cache.SetFaults(opts.Faults)
	}
	// Effective per-job options, with the suite's injections applied
	// up front: sweep grouping must key on what will actually run.
	eff := make([]Options, len(jobs))
	for i, job := range jobs {
		jopts := job.Opts
		if jopts.SpecCache == nil {
			jopts.SpecCache = cache
		}
		if jopts.Cancel == nil {
			jopts.Cancel = ctx.Done()
		}
		if jopts.Faults == nil {
			jopts.Faults = opts.Faults
		}
		eff[i] = jopts
	}
	units := planUnits(jobs, eff, opts.Sweep != SweepOff)

	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(units) {
		workers = len(units)
	}

	results := make([]SuiteResult, len(jobs))
	var next atomic.Int64
	next.Store(-1)
	var cbMu sync.Mutex
	emit := func(i int, r SuiteResult) {
		results[i] = r
		if opts.OnResult != nil {
			cbMu.Lock()
			opts.OnResult(i, r)
			cbMu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := int(next.Add(1))
				if u >= len(units) {
					return
				}
				unit := units[u]
				if opts.Gate != nil {
					if err := opts.Gate.Acquire(ctx); err != nil {
						emitUnitErr(unit, jobs, err, emit)
						continue
					}
				}
				if unit.group != nil {
					runSweepGroup(unit.group, jobs, ctx, emit)
				} else {
					i := unit.single
					job := jobs[i]
					r := SuiteResult{Job: job}
					if err := ctx.Err(); err != nil {
						r.Err = err
					} else {
						r.Res, r.Err = safeCheck(job, eff[i])
						if r.Err != nil && ctx.Err() != nil {
							// An interrupted solve surfaces as a solver
							// error; report the cancellation itself.
							r.Err = ctx.Err()
						}
					}
					emit(i, r)
				}
				if opts.Gate != nil {
					opts.Gate.Release()
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// runSweepGroup checks one sweep group and emits a SuiteResult for
// every member job. Duplicate jobs of the same model share the check:
// the second and later consumers receive a shallow copy of the result.
func runSweepGroup(g *sweepGroup, jobs []Job, ctx context.Context,
	emit func(int, SuiteResult)) {
	if err := ctx.Err(); err != nil {
		for _, idxs := range g.jobs {
			for _, i := range idxs {
				emit(i, SuiteResult{Job: jobs[i], Err: err})
			}
		}
		return
	}
	outs := g.run()
	for _, m := range g.models {
		o := outs[m]
		for k, i := range g.jobs[m] {
			r := SuiteResult{Job: jobs[i], Err: o.err}
			if o.res != nil {
				if k == 0 {
					r.Res = o.res
				} else {
					cp := *o.res
					r.Res = &cp
				}
			}
			if r.Err != nil && ctx.Err() != nil {
				r.Err = ctx.Err()
			}
			emit(i, r)
		}
	}
}

// emitUnitErr reports err for every job of a unit (used when the
// suite's admission gate fails, i.e. the context was cancelled while
// waiting for a slot).
func emitUnitErr(unit suiteUnit, jobs []Job, err error, emit func(int, SuiteResult)) {
	if unit.group != nil {
		for _, idxs := range unit.group.jobs {
			for _, i := range idxs {
				emit(i, SuiteResult{Job: jobs[i], Err: err})
			}
		}
		return
	}
	emit(unit.single, SuiteResult{Job: jobs[unit.single], Err: err})
}

// recoverAsError converts a recovered panic value into the typed error
// the panic-isolation layers report (*faultinject.RecoveredPanic,
// capturing the stack at the recovery point). Call it from a deferred
// recover handler.
func recoverAsError(p any) error {
	return &faultinject.RecoveredPanic{Value: p, Stack: debug.Stack()}
}

// safeCheck isolates one check: a panic anywhere in its pipeline
// (encoder, miner, solver) becomes that check's error — carrying the
// recovered value and stack as a *faultinject.RecoveredPanic — instead
// of killing the suite.
func safeCheck(job Job, opts Options) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res = nil
			err = fmt.Errorf("core: check %s/%s panicked: %w",
				job.Impl, job.Test, recoverAsError(p))
		}
	}()
	impl, test, err := job.resolve()
	if err != nil {
		return nil, err
	}
	return CheckImpl(impl, test, opts)
}
