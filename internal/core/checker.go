// Package core is the CheckFence driver: it orchestrates the pipeline
// of Fig. 3 of the paper — build the harness, lazily unroll loops
// (§3.3), run the range analysis (§3.4), mine the specification
// (§3.2), and perform the inclusion check, producing either PASS or a
// counterexample trace.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"checkfence/internal/encode"
	"checkfence/internal/faultinject"
	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
	"checkfence/internal/refimpl"
	"checkfence/internal/sat"
	"checkfence/internal/spec"
	"checkfence/internal/trace"
	"checkfence/internal/validate"
)

// SpecSource selects how the observation set is obtained.
type SpecSource int

const (
	// SpecSAT mines the set from the implementation itself with the
	// iterative SAT procedure (the default of §3.2).
	SpecSAT SpecSource = iota
	// SpecRef enumerates the set from a small sequential reference
	// implementation (the paper's fast "refset" path).
	SpecRef
)

func (s SpecSource) String() string {
	if s == SpecRef {
		return "refset"
	}
	return "sat"
}

// Options configures a check.
type Options struct {
	// Model is the memory model of the inclusion check.
	Model memmodel.Model
	// DisableRangeAnalysis turns §3.4 off (Fig. 11c comparison).
	DisableRangeAnalysis bool
	// SpecSource selects the mining method.
	SpecSource SpecSource
	// Spec, when non-nil, supplies a precomputed observation set and
	// skips mining entirely (the paper notes sets need not be
	// recomputed after implementation changes).
	Spec *spec.Set
	// InitialBounds seeds the per-loop-instance unrolling bounds.
	InitialBounds map[string]int
	// SpecCache, when non-nil, memoizes mined observation sets keyed
	// by (implementation source, test, bounds, spec source). The spec
	// is model-independent (§3.2), so a suite checking several models
	// mines once per key. RunSuite installs a shared cache
	// automatically.
	SpecCache *SpecCache
	// cancel, when non-nil and closed, aborts the check: SAT solves
	// stop at their next check point and the check returns an error
	// wrapping spec.ErrSolverUnknown. Only RunSuite sets it, from
	// SuiteOptions.Context.
	cancel <-chan struct{}
	// Encode, when non-nil, replaces the encoder's default
	// minimization configuration (encode.DefaultConfig). It is for
	// ablation tests and internal/bench only; the check still sets the
	// configuration's Faults itself and polls its Abort, when set,
	// before its own cancellation and deadline checks.
	Encode *encode.Config
	// Deadline bounds the wall-clock time of the whole check (0 =
	// none). A check that exhausts it returns VerdictUnknown with a
	// BudgetReport rather than an error.
	Deadline time.Duration
	// ConflictBudget caps the conflicts of each SAT solve (0 = none).
	ConflictBudget int64
	// Faults arms deterministic fault injection at the solver,
	// encoder, and mining hook points (tests and chaos runs only). A
	// job with faults armed never joins a model-sweep group.
	Faults faultinject.Faults
}

// encodeConfig returns the encoder configuration of the check: a
// copy of *Encode, or the default pipeline when it is nil.
func (o Options) encodeConfig() encode.Config {
	cfg := encode.DefaultConfig()
	if o.Encode != nil {
		cfg = *o.Encode
	}
	cfg.Faults = o.Faults
	return cfg
}

// Stats quantifies one check, mirroring the columns of the paper's
// Fig. 10 table plus the phase breakdown of Fig. 11b.
type Stats struct {
	Instrs int // unrolled instructions
	Loads  int
	Stores int

	CNFVars    int // final inclusion-check formula size (post-minimization)
	CNFClauses int
	// TransitivityClauses is the number of transitivity clauses the
	// paper's eager encoding would add to that formula (two per triple
	// of accesses, fewer after the order reduction). The solver's order
	// theory stands in for them, so they are counted, never emitted,
	// and CNFClauses leaves them out.
	TransitivityClauses int

	// Formula-minimization measurements of the inclusion check: gate
	// count of the circuit and CNF size before preprocessing. Pre*
	// equal the final counts when the pass did not run: preprocessing
	// is disabled, or the search decided the formula before reaching
	// the pass's conflict threshold (SolverStats.Preprocessed). What
	// preprocessing removed is in SolverStats. PreprocessTime adds up
	// over the rounds of the check; in a sweep it lands on the model
	// whose solve ran the pass, and it is part of that model's
	// RefuteTime.
	Gates          int
	PreCNFVars     int
	PreCNFClauses  int
	PreprocessTime time.Duration

	ObsSetSize     int
	MineIterations int
	BoundRounds    int

	// Backend is always "sat", the one verdict engine. The benchmark
	// module reads it (benchmark/checks.go, benchmark/service.go).
	Backend string
	// RFSteps and RFExecs are always 0: no check runs the reads-from
	// engine. The benchmark module reads them (benchmark/sweep.go).
	RFSteps int
	RFExecs int

	// Spec-cache traffic of this check: how many of its mining
	// requests were served from Options.SpecCache vs. mined fresh.
	// Both stay zero when no cache is configured.
	SpecCacheHits   int
	SpecCacheMisses int
	// SpecCacheCorrupt counts corrupt cache files quarantined while
	// serving this check's mining requests.
	SpecCacheCorrupt int

	// Conflicts the inclusion check's solver resolved by a
	// chronological backtrack, summed over bound rounds.
	ChronoBacktracks int64

	// Order-encoding reduction of the inclusion-check formula: order
	// variables fixed to constants beyond the baseline program-order
	// rules, and pairs merged into an already-allocated variable. Zero
	// when Options.Encode turns the order reduction off.
	OrderVarsFixed  int
	OrderVarsMerged int

	// Model-sweep counters (RunSuite sweep groups; all zero on
	// independent checks). SweepGroups is 1 when the verdict came from
	// a shared sweep encoding and SweepModels counts the models that
	// encoding served; SelectorVars/SelectorUnits size the selector
	// instrumentation. EncodesReused is 1 on results that reused the
	// group's encoding instead of building their own, and SeededObs
	// counts specification observations whose exclusion clauses such a
	// result shared rather than re-encoded. SweepEarlyExit is 1 when
	// the verdict came from replaying a stronger model's
	// counterexample under this model's axioms without solving. Shared
	// group costs — mining, encoding, probe time, solver counters — are
	// attributed to the leader (the strongest model), preprocessing to
	// the model whose solve ran the pass; every group member reports
	// the group's wall-clock time as its TotalTime.
	SweepGroups    int
	SweepModels    int
	SelectorVars   int
	SelectorUnits  int
	EncodesReused  int
	SeededObs      int
	SweepEarlyExit int

	// ProbeTime covers the lazy loop bound probes and the re-unrollings
	// they cause. A probed unrolling's probe formula is also its Serial
	// mine, so the one encoding of both is booked here, and MineTime
	// holds the mining solves, the seriality clauses added to the probe
	// formula, and the Serial encoding of an unrolling never probed.
	ProbeTime  time.Duration
	MineTime   time.Duration
	EncodeTime time.Duration // building the inclusion formula
	RefuteTime time.Duration // SAT solving of the inclusion check
	TotalTime  time.Duration
	// SolverStats is the final round's inclusion solver's own record:
	// search counters, what preprocessing removed, learnt tier sizes.
	SolverStats sat.Stats

	// AllocBytes is the total heap allocation of the check, the
	// memory proxy for the Fig. 10b chart. The Go runtime counts
	// allocation per process, not per goroutine, so it is recorded
	// only for a check that no other check of the process overlapped
	// in time. A check that ran beside another (RunSuite with
	// Parallelism > 1, concurrent daemon jobs) reports 0: unknown.
	AllocBytes uint64
}

// Result is the outcome of a check.
type Result struct {
	Impl  string
	Test  string
	Model memmodel.Model

	// Verdict is the three-valued outcome; Pass mirrors it for
	// convenience (Pass == (Verdict == VerdictPass)).
	Verdict Verdict
	Pass    bool
	SeqBug  bool // a serial execution reaches a runtime error
	Cex     *trace.Trace

	// Budget explains a VerdictUnknown (nil on every other verdict):
	// the configured budgets and what stopped the check.
	Budget *BudgetReport

	Spec  *spec.Set
	Stats Stats
}

// Check runs CheckFence on an implementation (by registry name) and a
// test (by Fig. 8 name or notation).
func Check(implName, testName string, opts Options) (*Result, error) {
	impl, err := harness.Get(implName)
	if err != nil {
		return nil, err
	}
	test, err := harness.GetTest(impl, testName)
	if err != nil {
		return nil, err
	}
	return CheckImpl(impl, test, opts)
}

// CheckImpl runs CheckFence on explicit implementation and test
// structures: checkModels over the one model opts.Model. A check that
// exhausts its budgets (or whose solver answers Unknown) returns
// VerdictUnknown with a BudgetReport, not an error.
func CheckImpl(impl *harness.Impl, test *harness.Test, opts Options) (*Result, error) {
	results, err := checkModels(impl, test, []memmodel.Model{opts.Model}, opts)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// attempts tracks the checkAttempt calls of the process, so that an
// attempt can tell whether its allocation delta is its own.
var attempts struct {
	sync.Mutex
	running int    // attempts in progress
	started uint64 // attempts ever started
}

// beginAttempt registers an attempt. The returned function unregisters
// it and reports whether it ran alone: no attempt was in progress when
// it began and none began before it ended. Call it after the last
// allocation reading.
func beginAttempt() (ranAlone func() bool) {
	attempts.Lock()
	attempts.running++
	attempts.started++
	alone, started := attempts.running == 1, attempts.started
	attempts.Unlock()
	return func() bool {
		attempts.Lock()
		defer attempts.Unlock()
		attempts.running--
		return alone && attempts.started == started
	}
}

// checkAttempt is the one attempt loop of the pipeline: it decides the
// given models (strongest first) — one for a single check or several
// for a sweep group — with attempt.run.
//
// Each model keeps one Result across rounds: sizes (unrolling,
// formula, observation set) come from its final round, while times and
// counters add up. Costs a round shares land on its leader, the
// strongest model still pending; probe time and the attempt's heap
// growth land on models[0]. The returned slice parallels models; on
// error it holds the models decided before the error and nil elsewhere.
func checkAttempt(impl *harness.Impl, test *harness.Test, models []memmodel.Model,
	opts Options, deadline time.Time) (results []*Result, err error) {

	start := time.Now()
	ranAlone := beginAttempt()
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	results = newResults(impl, test, models)
	// TotalTime and AllocBytes are set here, once, so every return path
	// (early counterexample, bounds already sufficient, converged
	// re-check, error) reports them consistently. A result still
	// undecided is only possible on error, and is dropped.
	defer func() {
		total := time.Since(start)
		for i, res := range results {
			if res.Verdict == VerdictUnknown {
				results[i] = nil
				continue
			}
			res.Stats.TotalTime = total
		}
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		if ranAlone() && results[0] != nil {
			results[0].Stats.AllocBytes = memAfter.TotalAlloc - memBefore.TotalAlloc
		}
	}()

	a := &attempt{impl: impl, test: test, opts: opts, deadline: deadline}
	if err := a.start(); err != nil {
		return results, err
	}
	return results, a.run(results)
}

// newResults returns the undecided results of an attempt over models.
func newResults(impl *harness.Impl, test *harness.Test, models []memmodel.Model) []*Result {
	results := make([]*Result, len(models))
	for i, m := range models {
		res := &Result{Impl: impl.Name, Test: test.Name, Model: m, Verdict: VerdictUnknown}
		if len(models) > 1 {
			res.Stats.SweepGroups, res.Stats.SweepModels = 1, len(models)
		}
		results[i] = res
	}
	return results
}

// run decides results (strongest first) on the started attempt.
//
// Lazy loop unrolling follows the paper's §3.3 order: a round runs at
// the current bounds first, and a counterexample decides its model
// whatever the loop bounds. Only if models pass do the bounds grow, by
// the bound loop harness.Unrolling.Converge shares with the
// commit-point baseline, until the probe is refuted; one more round
// then runs for the still-pending models at the converged bounds
// (intermediate bound levels need no round: they only add executions,
// which the final round covers).
//
// The probe of an unrolling encodes the program under SC, and a
// round's Serial mine is the SC executions whose operations are
// contiguous, so a round mines on the probe formula of its bounds
// (encode.Encoder.RestrictToSerial) instead of encoding the program
// again: the initial bounds are probed before their round, whose
// counterexamples still decide before any bound grows, and the
// converged bounds' round mines on the probe that refuted growth.
// Every pending model probes under the same model (the probe maps
// everything at or below SC to SC), so one probe sequence serves a
// whole sweep.
func (a *attempt) run(results []*Result) error {
	model, probeTime := results[0].Model, &results[0].Stats.ProbeTime
	var ids []int
	err := timed(probeTime, func() (err error) {
		ids, err = a.u.Probe(model, a.probe)
		return err
	})
	if err != nil {
		return err
	}
	pending, err := a.round(results)
	if err != nil || len(pending) == 0 {
		return err
	}
	if len(ids) > 0 {
		err := timed(probeTime, func() error {
			if err := a.u.Grow(ids); err != nil {
				return err
			}
			_, err := a.u.Converge(model, a.probe)
			return err
		})
		if err != nil {
			return err
		}
		if pending, err = a.round(pending); err != nil {
			return err
		}
	}
	// Whatever is still pending passed at the converged bounds.
	for _, res := range pending {
		res.Pass, res.Verdict = true, VerdictPass
	}
	return nil
}

// timed runs f and adds its time to *d.
func timed(d *time.Duration, f func() error) error {
	start := time.Now()
	err := f()
	*d += time.Since(start)
	return err
}

// attempt is the state of one checkAttempt pass: the check, its
// strategy and deadline, the model-independent front end at the
// current loop bounds, and the encoder its formulas recycle.
//
// The formulas of an attempt (the bound probes, the Serial mine, the
// inclusion check) are built one after another, and each is dead
// before the next is built, so they share one solver and one circuit
// builder: spare is the last encoder nothing reads any more, and
// encode builds the next formula on its storage. probed is the probe
// of the current unrolling until the round's mine takes it over
// (serialFormula) or the round mines without it. An encoder becomes
// spare only where its last reader is done with it — a probe that
// Converge grew past once it asks for the next, the Serial miner once
// mineSpec returns (the sequential-bug trace is decoded inside it), a
// probe nothing mined on then too, and the inclusion encoder once
// satRound returns (trace.Build copies the values of a counterexample
// out) — and never when its Encode failed.
type attempt struct {
	impl     *harness.Impl
	test     *harness.Test
	opts     Options
	deadline time.Time

	built *harness.Built
	u     *harness.Unrolling

	spare  *encode.Encoder
	probed *encode.Encoder

	// formulas counts the formulas the attempt encoded, by kind.
	formulas struct{ probe, serial, inclusion int }
}

// start builds the harness and unrolls it at the initial bounds.
func (a *attempt) start() error {
	built, err := harness.Build(a.impl, a.test)
	if err != nil {
		return err
	}
	a.built = built
	a.u, err = built.StartUnrolling(a.opts.InitialBounds, !a.opts.DisableRangeAnalysis)
	return err
}

// encode builds the formula of the unrolled program for the given
// models — a single-model encoder for one, a selector-guarded sweep
// encoder for several — under the check's resource limits. The caller
// asserts the overflow condition it needs. preprocess says whether
// the formula is armed for preprocessing: only the inclusion formula
// is; the bound probes and the Serial mine are solved as encoded (see
// encode.Config.Preprocess).
func (a *attempt) encode(models []memmodel.Model, preprocess bool) (*encode.Encoder, error) {
	cfg := a.opts.encodeConfig()
	cfg.Preprocess = cfg.Preprocess && preprocess
	enc, err := encode.NewReusing(a.spare, models, a.u.Info, cfg)
	a.spare = nil
	if err != nil {
		return nil, err
	}
	applyLimits(enc, a.opts, a.deadline)
	if err := enc.Encode(a.u.Threads); err != nil {
		return nil, err
	}
	return enc, nil
}

// recycle makes enc, which nothing reads any more, the encoder the
// next formula is built on (nil leaves the spare as it is).
func (a *attempt) recycle(enc *encode.Encoder) {
	if enc != nil {
		a.spare = enc
	}
}

// probe builds the bound-probe formula of the current unrolling under
// model m, with the check's encoder configuration and resource limits.
// The bound loop asks for a probe only once it has read the answer of
// the one before, at the bounds that answer grew, so that one is
// recycled here; the last one stays the probe of the current
// unrolling for its round to mine on.
func (a *attempt) probe(m memmodel.Model) (*encode.Encoder, error) {
	a.recycle(a.probed)
	a.formulas.probe++
	enc, err := a.encode([]memmodel.Model{m}, false)
	a.probed = enc
	return enc, err
}

// round decides the pending models (strongest first) at the current
// bounds on one shared SAT encoding. Failing models are decided in
// place; the returned models passed at these bounds and stay pending,
// strongest first.
func (a *attempt) round(pending []*Result) ([]*Result, error) {
	for _, res := range pending {
		st := &res.Stats
		st.Instrs, st.Loads, st.Stores = a.u.Instrs, a.u.Loads, a.u.Stores
		st.BoundRounds = a.u.Rounds
		st.Backend = "sat"
	}
	enc, err := a.satRound(pending)
	if err != nil {
		return nil, err
	}
	a.recycle(enc)
	var passed []*Result
	for _, res := range pending {
		if res.Verdict == VerdictUnknown {
			passed = append(passed, res)
		}
	}
	return passed, nil
}

// satRound mines the specification and runs the inclusion check for
// the given models (strongest first) on one encoding shared by all of
// them, deciding each failing model in place. Costs the round shares —
// mining, encoding, preprocessing, solver counters — land on its leader
// (pending[0]); each model's own solves land on its own result. It
// returns the inclusion encoder, which nothing reads afterwards, or nil
// when a sequential bug decided the round without one.
func (a *attempt) satRound(pending []*Result) (*encode.Encoder, error) {
	lead := pending[0]

	// Specification: mined once for every pending model (the
	// observation set is model-independent, §3.2).
	mineStart := time.Now()
	set, seqTrace, err := a.mineSpec(lead)
	lead.Stats.MineTime += time.Since(mineStart)
	if err != nil {
		return nil, err
	}
	if seqTrace != nil {
		// A sequential bug is model-independent: every pending model
		// fails with the same serial trace, validated once.
		if err := validateCex(seqTrace, a.built, a.u.Unrolled); err != nil {
			return nil, err
		}
		for _, res := range pending {
			res.SeqBug = true
			res.fail(seqTrace)
		}
		return nil, nil
	}

	// Inclusion check. The formula is encoded, and armed for
	// preprocessing, once for every pending model and solved by one
	// solver. On a sweep, every non-leader reuses the leader's encoding
	// and the specification's exclusion clauses.
	models := make([]memmodel.Model, len(pending))
	for i, res := range pending {
		models[i] = res.Model
	}
	encodeStart := time.Now()
	a.formulas.inclusion++
	enc, err := a.encode(models, true)
	if err != nil {
		return nil, err
	}
	enc.AssertNoOverflow()
	lead.Stats.EncodeTime += time.Since(encodeStart)
	for i, res := range pending {
		st := &res.Stats
		res.Spec, st.ObsSetSize = set, set.Len()
		st.SelectorVars, st.SelectorUnits = len(enc.SweepModels()), enc.SelectorUnits
		st.EncodesReused, st.SeededObs = 0, 0
		if i > 0 {
			st.EncodesReused, st.SeededObs = 1, set.Len()
		}
	}

	refuteStart := time.Now()
	sc, err := spec.NewSweepCheck(enc, a.built.Entries, set)
	lead.Stats.RefuteTime += time.Since(refuteStart)
	if err != nil {
		return nil, err
	}
	if err := a.solveModels(pending, sc); err != nil {
		return nil, err
	}
	lead.Stats.recordFormula(enc)
	return enc, nil
}

// solveModels runs the inclusion query of each model, strongest
// first, deciding the failing ones in place. A counterexample of a
// stronger model that replays under a weaker model's axioms decides the
// weaker model without touching the solver (the monotonic early exit
// of a sweep).
func (a *attempt) solveModels(models []*Result, sc *spec.SweepCheck) error {
	enc := sc.Encoder()
	var traces []*trace.Trace
	for _, res := range models {
		if t := replayUnder(res.Model, traces, a.built, a.u.Unrolled); t != nil {
			res.fail(t)
			res.Stats.SweepEarlyExit = 1
			continue
		}
		// The armed preprocessing pass runs inside whichever solve
		// reaches its conflict threshold, so its time is booked on the
		// model of that solve, whose RefuteTime holds it.
		solveStart, preBefore := time.Now(), enc.S.Stats().PreprocessTime
		cex, err := sc.Check(res.Model)
		res.Stats.RefuteTime += time.Since(solveStart)
		res.Stats.PreprocessTime += enc.S.Stats().PreprocessTime - preBefore
		if err != nil {
			return err
		}
		if cex == nil {
			continue
		}
		t := trace.Build(enc, a.built, a.u.Unrolled, cex)
		t.Model = res.Model
		if err := validateCex(t, a.built, a.u.Unrolled); err != nil {
			return err
		}
		traces = append(traces, t)
		res.fail(t)
	}
	return nil
}

// fail decides r as a failure with counterexample t.
func (r *Result) fail(t *trace.Trace) {
	r.Pass, r.Verdict, r.Cex = false, VerdictFail, t
}

// recordFormula copies the inclusion formula's size and its solver's
// counters into st. Sizes overwrite — a check reports its final
// round's formula — while chronological backtracks add up across
// rounds. Preprocessing time is booked by solveModels instead.
func (st *Stats) recordFormula(enc *encode.Encoder) {
	s := enc.S.Stats()
	st.SolverStats = s
	st.CNFVars, st.CNFClauses = s.Vars, s.Clauses
	st.TransitivityClauses = enc.TransitivityClauses()
	st.Gates = enc.B.NumGates()
	st.PreCNFVars, st.PreCNFClauses = s.PreVars, s.PreClauses
	if !s.Preprocessed {
		// Preprocessing did not run; pre-minimization size is the
		// final size.
		st.PreCNFVars, st.PreCNFClauses = s.Vars, s.Clauses
	}
	st.ChronoBacktracks += s.ChronoBacktracks
	st.OrderVarsFixed, st.OrderVarsMerged = enc.OrderVarsFixed, enc.OrderVarsMerged
}

// mineSpec obtains the observation set for a check at the current
// bounds: Options.Spec verbatim, the refset enumeration, or the §3.2
// SAT mine — through the spec cache when one is configured (the
// mining closure is single-flighted across concurrent checks, and the
// escaping serialEnc is only ever set by this check's own invocation:
// the cache never shares failures). Cache traffic and the iteration
// count land in res.Stats. When a serial execution reaches a runtime
// error, the decoded sequential-bug trace is returned instead of a
// set; the caller owns its validation. The probe of the current
// unrolling is spare when mineSpec returns, whether the mine took it
// over or not.
func (a *attempt) mineSpec(res *Result) (*spec.Set, *trace.Trace, error) {
	defer func() {
		a.recycle(a.probed)
		a.probed = nil
	}()
	opts := a.opts
	if opts.Spec != nil {
		return opts.Spec, nil, nil
	}
	var serialEnc *encode.Encoder
	mine := func() (*spec.Set, int, error) {
		switch opts.SpecSource {
		case SpecRef:
			set, err := refimpl.Enumerate(a.impl, a.test)
			return set, 0, err
		default:
			var err error
			if serialEnc, err = a.serialFormula(); err != nil {
				return nil, 0, err
			}
			mined, stats, err := spec.MineWith(serialEnc, a.built.Entries,
				spec.Strategy{Faults: opts.Faults})
			return mined, stats.Iterations, err
		}
	}
	var (
		mined      *spec.Set
		iterations int
		err        error
	)
	if opts.SpecCache != nil {
		var outcome CacheOutcome
		key := specKey(a.impl, a.test, a.u.Bounds, opts.SpecSource)
		mined, iterations, outcome, err = opts.SpecCache.GetOrMine(key, mine)
		if outcome.Hit {
			res.Stats.SpecCacheHits++
		} else {
			res.Stats.SpecCacheMisses++
		}
		if outcome.Corrupt {
			res.Stats.SpecCacheCorrupt++
		}
	} else {
		mined, iterations, err = mine()
	}
	if err != nil {
		if seqBug, ok := err.(*spec.SeqBugError); ok && serialEnc != nil {
			cex := &spec.Counterexample{Obs: seqBug.Obs, IsErr: true,
				Err: "runtime error in serial execution"}
			t := trace.Build(serialEnc, a.built, a.u.Unrolled, cex)
			a.recycle(serialEnc)
			return nil, t, nil
		}
		return nil, nil, err
	}
	a.recycle(serialEnc)
	res.Stats.MineIterations = iterations
	return mined, nil, nil
}

// serialFormula returns the Serial mine of the current unrolling with
// every loop kept within its bound: the unrolling's probe formula
// restricted to serial executions when it was probed, which takes the
// probe over, and a Serial encoding of its own otherwise (an unrolling
// without a loop that can overflow is never probed).
func (a *attempt) serialFormula() (*encode.Encoder, error) {
	if enc := a.probed; enc != nil {
		a.probed = nil
		enc.RestrictToSerial()
		return enc, nil
	}
	a.formulas.serial++
	enc, err := a.encode([]memmodel.Model{memmodel.Serial}, false)
	if err != nil {
		return nil, err
	}
	enc.AssertNoOverflow()
	return enc, nil
}

// validateCex independently re-checks a decoded counterexample (axiom
// re-verification over the concrete event list plus interpreter replay
// of each thread). A failure means CheckFence itself decoded or encoded
// wrongly — an internal error carrying the first violated axiom and the
// suspect trace, never a verdict.
func validateCex(t *trace.Trace, built *harness.Built, unrolled *harness.Unrolled) error {
	if err := validate.Check(t, unrolled.Threads, built.Unit.Prog); err != nil {
		return fmt.Errorf("core: internal error: counterexample failed validation: %w\nsuspect trace:\n%s", err, t)
	}
	return nil
}

// applyLimits wires the check's resource governance into an encoder:
// Options.cancel becomes the solver's stop predicate (long solves
// abort promptly on suite cancellation), the deadline and the
// conflict budget arm the solver's typed-budget machinery,
// and both cancellation and the deadline also abort the encoding
// phase itself, which can dominate a short deadline on big harnesses.
func applyLimits(e *encode.Encoder, opts Options, deadline time.Time) {
	cancel := opts.cancel
	if cancel != nil {
		e.S.SetStop(func() bool {
			select {
			case <-cancel:
				return true
			default:
				return false
			}
		})
	}
	if !deadline.IsZero() {
		e.S.SetDeadline(deadline)
	}
	if opts.ConflictBudget > 0 {
		e.S.SetBudget(opts.ConflictBudget)
	}
	if cancel != nil || !deadline.IsZero() {
		abort := e.Cfg.Abort
		e.Cfg.Abort = func() error {
			if abort != nil {
				if err := abort(); err != nil {
					return err
				}
			}
			if cancel != nil {
				select {
				case <-cancel:
					return fmt.Errorf("core: check cancelled during encoding: %w",
						spec.ErrSolverUnknown)
				default:
				}
			}
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				return fmt.Errorf("core: encoding: %w",
					&sat.ErrBudget{Kind: sat.BudgetDeadline})
			}
			return nil
		}
	}
}
