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
	"checkfence/internal/memmodel"
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

// SuiteOptions configures RunSuite: the pool, cancellation, the
// shared spec cache and admission control. Jobs identical in
// everything but Model are always checked as one unit on a shared
// selector-guarded encoding, except Serial and fault-injected jobs
// (see sweep.go).
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
	// fresh in-memory cache is created per suite; NewSpecCache with a
	// directory gives one with an on-disk mirror.
	SpecCache *SpecCache
	// OnResult, when non-nil, is invoked as each job finishes, with
	// the job's index. Calls are serialized but arrive in completion
	// order, not job order.
	OnResult func(index int, r SuiteResult)
	// Faults arms deterministic fault injection on every job that does
	// not set its own, and on the suite's spec cache (tests and chaos
	// runs only).
	Faults faultinject.Faults
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
		cache = NewSpecCache("")
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
		jopts.cancel = ctx.Done()
		if jopts.Faults == nil {
			jopts.Faults = opts.Faults
		}
		eff[i] = jopts
	}
	units := planUnits(jobs, eff)

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
				k := int(next.Add(1))
				if k >= len(units) {
					return
				}
				u := units[k]
				var res []*Result
				var err error
				if opts.Gate != nil {
					err = opts.Gate.Acquire(ctx)
				}
				if err == nil {
					if err = ctx.Err(); err == nil {
						res, err = safeCheck(u)
					}
					if opts.Gate != nil {
						opts.Gate.Release()
					}
				}
				if err != nil && ctx.Err() != nil {
					// An interrupted solve surfaces as a solver error;
					// report the cancellation itself.
					err = ctx.Err()
				}
				// A job repeated verbatim shares its model's check: the
				// second and later consumers receive a shallow copy.
				for m, idxs := range u.jobs {
					for d, i := range idxs {
						r := SuiteResult{Job: jobs[i], Err: err}
						if res != nil && res[m] != nil {
							r.Res, r.Err = res[m], nil
							if d > 0 {
								cp := *res[m]
								r.Res = &cp
							}
						}
						emit(i, r)
					}
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// unit is one work item of RunSuite's pool: the jobs one checkModels
// call decides — a single job, or a sweep group of jobs identical in
// everything but model.
type unit struct {
	// job resolves the implementation and test (its Opts are unused).
	job Job
	// opts are the unit's effective options, Model set to models[0].
	opts Options
	// models holds the unit's distinct models, strongest-first — the
	// sweep order the counterexample-replay early exit relies on.
	models []memmodel.Model
	// jobs[k] lists the suite job indices models[k] serves (more than
	// one when a suite repeats a job verbatim).
	jobs [][]int
}

// safeCheck isolates one unit: a panic anywhere in its pipeline
// (encoder, miner, solver) becomes the error of every model of the
// unit — carrying the recovered value and stack as a
// *faultinject.RecoveredPanic — instead of killing the suite. It is
// the one panic recovery of the check path.
func safeCheck(u *unit) (res []*Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res = nil
			err = fmt.Errorf("core: check %s/%s panicked: %w",
				u.job.Impl, u.job.Test,
				&faultinject.RecoveredPanic{Value: p, Stack: debug.Stack()})
		}
	}()
	impl, test, err := u.job.resolve()
	if err != nil {
		return nil, err
	}
	return checkModels(impl, test, u.models, u.opts)
}
