package spec

// This file adds intra-check parallelism to mining and the inclusion
// check. All parallel paths operate on sat.CloneFormula snapshots of
// the encoder's solver, so the formula is encoded and preprocessed
// exactly once regardless of how many workers solve it:
//
//   - Strategy.Portfolio races diversified configurations over clones
//     of the shared formula, optionally exchanging learned clauses
//     (Strategy.ShareClauses) at restart boundaries.
//   - Strategy.Cube splits phase 2 of the inclusion check into 2^d
//     cubes over memory-order variables and solves them on a
//     work-stealing pool (cube-and-conquer).
//   - For mining, disjoint cubes over observation-bit variables
//     partition the enumeration: each satisfiable assignment of the
//     observation bits extends exactly one cube, so every observation
//     is enumerated exactly once in exactly one cube and the merged
//     set — and the summed iteration count — is identical to the
//     serial enumeration.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"checkfence/internal/encode"
	"checkfence/internal/faultinject"
	"checkfence/internal/sat"
)

// DefaultMaxMineIterations bounds the mining enumeration when
// Strategy.MaxMineIterations is zero. The bound exists to turn an
// accidentally underconstrained test (e.g. an unconstrained input
// register leaking into the observation) into an error instead of an
// endless loop.
const DefaultMaxMineIterations = 100000

// ErrMineLimit is wrapped by mining when the enumeration exceeds the
// iteration limit.
var ErrMineLimit = errors.New("spec: mining exceeded iteration limit")

// blockShrink drops provably redundant literals from mining blocking
// clauses: bits whose SAT variable is fixed at the root (constants and
// learned units — identical in every remaining model) and duplicate
// variables (a variable's assignment determines every bit it backs).
// Shorter blocking clauses propagate earlier and cost less to watch;
// the mined set and iteration count are unchanged because each shrunk
// clause excludes exactly the same models as the full one. The toggle
// exists for the equivalence test.
var blockShrink = true

// Strategy configures intra-check parallelism. The zero value is fully
// serial and behaves exactly like the historical Mine/CheckInclusion.
type Strategy struct {
	// Portfolio, when > 1, races that many diversified configurations
	// over CloneFormula snapshots for the single-verdict solves (the
	// sequential-bug check, phase 1, and phase 2 unless Cube takes it).
	Portfolio int
	// ShareClauses lets portfolio members exchange learned clauses
	// with LBD <= ShareLBD (0 = default) at restart boundaries.
	ShareClauses bool
	ShareLBD     int
	// Cube, when > 1, solves phase 2 of the inclusion check
	// cube-and-conquer style with that many workers, and partitions
	// mining over disjoint observation-bit cubes on that many workers.
	Cube int
	// CubeDepth fixes the number of splitting variables (2^depth
	// cubes); 0 picks a depth oversplitting the worker count so work
	// stealing can balance uneven cubes.
	CubeDepth int
	// MaxMineIterations caps the mining enumeration (0 = default).
	MaxMineIterations int
	// Stats, when non-nil, accumulates parallel-work counters.
	Stats *ParStats
	// Resume seeds the enumeration with a previously mined partial
	// set: its observations are excluded up front (the exclusion
	// clauses block every model of each observation, a superset of the
	// per-model blocking clauses the original run added) and included
	// in the result, so an interrupted mine continues instead of
	// restarting.
	Resume *Set
	// ResumeIterations is the iteration count already spent producing
	// Resume; the continued run's count and the iteration limit are
	// cumulative across it.
	ResumeIterations int
	// Checkpoint, when non-nil, is called with the partial set and the
	// cumulative iteration count every CheckpointEvery iterations, so
	// an interrupted mine can later resume. The callback must not
	// retain the set: mining keeps mutating it.
	Checkpoint func(partial *Set, iterations int)
	// CheckpointEvery is the iteration period between Checkpoint calls
	// (0 = 32).
	CheckpointEvery int
	// Faults, when non-nil, installs fault-injection hooks on the
	// mining path (see internal/faultinject).
	Faults faultinject.Faults
	// Assume restricts both phases of the inclusion check to the
	// executions satisfying these literals — one cube of a
	// cross-process cube-and-conquer fan-out. The literals must be
	// over variables that survive preprocessing (CheckFence passes
	// memory-order variables, which PreprocessCNF freezes). Mining
	// ignores the field: the specification is cube-independent.
	Assume []sat.Lit
}

// ParStats counts the parallel work of a check.
type ParStats struct {
	// Cubes and CubesRefuted count cube-and-conquer cubes issued and
	// proven Unsat (phase 2 and partitioned mining combined).
	Cubes        int
	CubesRefuted int
	// Clause-sharing traffic summed over portfolio members.
	SharedExported int64
	SharedImported int64
	SharedUseful   int64
	// Inprocessing work summed over portfolio and cube workers (the
	// base solver's own counters are reported separately via
	// core.Stats.SolverStats).
	VivifiedClauses  int64
	VivifiedLits     int64
	SubsumedLearnts  int64
	ChronoBacktracks int64
}

func (st Strategy) maxIter() int {
	if st.MaxMineIterations > 0 {
		return st.MaxMineIterations
	}
	return DefaultMaxMineIterations
}

func (st Strategy) checkpointEvery() int {
	if st.CheckpointEvery > 0 {
		return st.CheckpointEvery
	}
	return 32
}

// unknownErr wraps a non-definitive solver status into the
// ErrSolverUnknown chain, preserving the typed cause (a *sat.ErrBudget
// or a recovered panic) when one is known so upstream layers can tell
// budget exhaustion from cancellation.
func unknownErr(phase string, st sat.Status, cause error) error {
	if cause != nil {
		return fmt.Errorf("%w during %s: %w", ErrSolverUnknown, phase, cause)
	}
	return fmt.Errorf("%w during %s (status %v)", ErrSolverUnknown, phase, st)
}

func (st Strategy) fold(work sat.Stats) {
	if st.Stats == nil {
		return
	}
	st.Stats.SharedExported += work.SharedExported
	st.Stats.SharedImported += work.SharedImported
	st.Stats.SharedUseful += work.SharedUseful
	st.Stats.VivifiedClauses += work.VivifiedClauses
	st.Stats.VivifiedLits += work.VivifiedLits
	st.Stats.SubsumedLearnts += work.SubsumedLearnts
	st.Stats.ChronoBacktracks += work.ChronoBacktracks
}

// decodeObs reads the observation vector from s's model (s is e.S or
// a CloneFormula snapshot of it).
func decodeObs(e *encode.Encoder, s *sat.Solver, svs []encode.SymVal) Observation {
	obs := make(Observation, len(svs))
	for i, sv := range svs {
		obs[i] = e.EvalValIn(s, sv)
	}
	return obs
}

// solveOne performs one single-verdict solve under the strategy: a
// shared-formula portfolio when configured, the encoder's own solver
// otherwise. On Sat the model is readable through e.S (a winning
// clone's model is adopted). On Unknown the second result carries the
// typed cause — a *sat.ErrBudget or a recovered member panic — when
// one is known, and nil for plain cancellation.
func solveOne(e *encode.Encoder, strat Strategy, assumptions ...sat.Lit) (sat.Status, error) {
	if strat.Portfolio > 1 {
		p := sat.Portfolio{
			Configs:      sat.PortfolioConfigs(strat.Portfolio),
			ShareClauses: strat.ShareClauses,
			ShareLBD:     strat.ShareLBD,
		}
		run := p.SolveShared(e.S, assumptions...)
		strat.fold(run.Work)
		if run.Status == sat.Sat && run.Winner != e.S {
			e.S.AdoptModelFrom(run.Winner)
		}
		if run.Budget != nil {
			return run.Status, run.Budget
		}
		return run.Status, run.Panic
	}
	st := e.S.Solve(assumptions...)
	if st == sat.Unknown {
		if be := e.S.BudgetErr(); be != nil {
			return st, be
		}
	}
	return st, nil
}

// solvePhase2 solves the final query of the inclusion check —
// unassumed on a single-model encoder, under the model-selector
// assumptions on a sweep — cube-and-conquer when configured, solveOne
// otherwise. On Sat the model is readable through e.S. The error
// result mirrors solveOne's.
func solvePhase2(e *encode.Encoder, strat Strategy, assumptions ...sat.Lit) (sat.Status, error) {
	if strat.Cube <= 1 {
		return solveOne(e, strat, assumptions...)
	}
	depth := strat.CubeDepth
	if depth <= 0 {
		// Oversplit 4x past the worker count: cube hardness is wildly
		// uneven, and stealing can only balance what is divisible.
		for depth = 1; 1<<uint(depth) < 4*strat.Cube && depth < 16; depth++ {
		}
	}
	// Selector variables are fixed by the assumptions on a sweep, so
	// splitting on them would waste half of every cube.
	cubes := sat.CubeSplitter{
		Depth:  depth,
		Prefer: e.OrderSatVars(),
		Avoid:  e.SelectorSatVars(),
	}.Split(e.S)
	run := sat.SolveCubes(e.S, cubes, strat.Cube, assumptions...)
	strat.fold(run.Work)
	if strat.Stats != nil {
		strat.Stats.Cubes += run.Cubes
		strat.Stats.CubesRefuted += run.Refuted
	}
	if run.Status == sat.Sat && run.Winner != e.S {
		e.S.AdoptModelFrom(run.Winner)
	}
	if run.Budget != nil {
		return run.Status, run.Budget
	}
	return run.Status, run.Err
}

// MineWith is Mine under a parallelism strategy. The mined set and
// iteration count are identical to the serial enumeration for every
// strategy; only the wall-clock schedule differs. When mining stops
// early (iteration limit, budget, cancellation), the partial set mined
// so far is returned alongside the error so callers can checkpoint and
// later resume it instead of discarding the work.
func MineWith(e *encode.Encoder, entries []Entry, strat Strategy) (*Set, MineStats, error) {
	if strat.Faults != nil && strat.Faults.Fire(faultinject.MinePanic) {
		panic(faultinject.Injected{Site: faultinject.MinePanic})
	}
	svs, err := obsVals(e, entries)
	if err != nil {
		return nil, MineStats{}, err
	}
	// Materialize every literal the incremental loop will reference —
	// the error literal (assumed, then asserted false) and the
	// observation bits (blocking clauses flip their signs per model) —
	// then preprocess the CNF with exactly those frozen.
	errLit := e.B.Lit(e.ErrorNode())
	bits := obsBits(e, svs)
	lits := make([]sat.Lit, len(bits))
	for i, b := range bits {
		lits[i] = e.B.Lit(b)
	}
	e.PreprocessCNF(append([]sat.Lit{errLit}, lits...)...)

	// Sequential bug check: is any erroneous serial execution
	// possible?
	switch st, cause := solveOne(e, strat, errLit); st {
	case sat.Sat:
		return nil, MineStats{}, &SeqBugError{Obs: decodeObs(e, e.S, svs)}
	case sat.Unsat:
	default:
		return nil, MineStats{}, unknownErr("sequential bug check", st, cause)
	}

	// Enumerate error-free serial observations.
	e.S.AddClause(errLit.Not())
	// Exclude everything a resumed checkpoint already established. Each
	// exclusion blocks all models of its observation — a superset of
	// the per-model blocking clauses a direct enumeration would have
	// added — so checkpoint ∪ continued enumeration is the full set.
	if strat.Resume != nil {
		for _, o := range strat.Resume.All() {
			if err := assertNotObservation(e, svs, o); err != nil {
				return nil, MineStats{}, err
			}
		}
	}
	if strat.Cube > 1 {
		return minePartitioned(e, svs, lits, strat)
	}
	return mineSerial(e, svs, lits, strat)
}

// seedSet returns the set mining accumulates into, pre-populated with
// the resumed checkpoint's observations.
func (st Strategy) seedSet() *Set {
	set := NewSet()
	if st.Resume != nil {
		for _, o := range st.Resume.All() {
			set.Add(o)
		}
	}
	return set
}

// mineSerial is the classical blocking-clause enumeration on e.S.
func mineSerial(e *encode.Encoder, svs []encode.SymVal, lits []sat.Lit, strat Strategy) (*Set, MineStats, error) {
	set := strat.seedSet()
	stats := MineStats{Iterations: strat.ResumeIterations}
	limit := strat.maxIter()
	every := strat.checkpointEvery()
	for {
		st := e.S.Solve()
		if st == sat.Unsat {
			return set, stats, nil
		}
		if st != sat.Sat {
			var cause error
			if be := e.S.BudgetErr(); be != nil {
				cause = be
			}
			return set, stats, unknownErr("mining", st, cause)
		}
		stats.Iterations++
		set.Add(decodeObs(e, e.S, svs))
		// Block every assignment of the observation bits seen in this
		// model (not just this observation's canonical value): the
		// bits fully determine the observation.
		e.S.AddClause(blockingClause(e.S, lits)...)
		if strat.Checkpoint != nil && stats.Iterations%every == 0 {
			strat.Checkpoint(set, stats.Iterations)
		}
		if stats.Iterations > limit {
			return set, stats, fmt.Errorf("%w (%d iterations)", ErrMineLimit, stats.Iterations)
		}
	}
}

// blockingClause builds the clause excluding s's current assignment of
// the observation bits. With blockShrink, literals that cannot
// distinguish models are dropped: root-fixed variables (identical in
// every remaining model — covers constant bits, whose backing variable
// carries a unit clause) and repeated variables. Cube assumptions are
// never dropped — they are assigned at decision levels, not the root —
// so a partitioned worker's blocking clauses always carry its cube and
// can never exclude models of other cubes.
func blockingClause(s *sat.Solver, lits []sat.Lit) []sat.Lit {
	block := make([]sat.Lit, 0, len(lits))
	var seen map[int]bool
	if blockShrink {
		seen = make(map[int]bool, len(lits))
	}
	for _, l := range lits {
		if blockShrink {
			v := l.Var()
			if seen[v] || s.FixedAtRoot(v) {
				continue
			}
			seen[v] = true
		}
		if s.ValueLit(l) {
			block = append(block, l.Not())
		} else {
			block = append(block, l)
		}
	}
	return block
}

// minePartitioned enumerates the observation set in parallel by
// partitioning on observation-bit variables: the 2^d sign combinations
// of d such variables are disjoint and jointly exhaustive, so each
// satisfiable observation-bit assignment is enumerated in exactly one
// cube and the merged result is bit-identical to mineSerial's.
// Workers own CloneFormula snapshots reused across the cubes they
// steal; blocking clauses are added to the worker's clone only (they
// include the cube literals implicitly via the enumerated bits, so
// they could not block another cube's models even if shared).
func minePartitioned(e *encode.Encoder, svs []encode.SymVal, lits []sat.Lit, strat Strategy) (*Set, MineStats, error) {
	// Candidate split variables: distinct observation-bit variables not
	// already fixed at the root (a root-fixed variable would make one
	// polarity's cube trivially empty).
	var cand []int
	seenVar := map[int]bool{}
	for _, l := range lits {
		v := l.Var()
		if seenVar[v] || e.S.FixedAtRoot(v) {
			continue
		}
		seenVar[v] = true
		cand = append(cand, v)
	}
	workers := strat.Cube
	depth := strat.CubeDepth
	if depth <= 0 {
		// 2x oversplit: mining cubes are cheaper than phase-2 cubes
		// (each is a sub-enumeration, so idle tails are shorter).
		for depth = 1; 1<<uint(depth) < 2*workers && depth < 16; depth++ {
		}
	}
	if depth > len(cand) {
		depth = len(cand)
	}
	if depth == 0 {
		return mineSerial(e, svs, lits, strat)
	}
	vars := cand[:depth]
	cubes := make([][]sat.Lit, 1<<uint(depth))
	for mask := range cubes {
		cube := make([]sat.Lit, depth)
		for i, v := range vars {
			cube[i] = sat.MkLit(v, mask>>uint(i)&1 == 1)
		}
		cubes[mask] = cube
	}
	if workers > len(cubes) {
		workers = len(cubes)
	}
	// Clone serially: CloneFormula mutates the receiver.
	clones := make([]*sat.Solver, workers)
	for i := range clones {
		clones[i] = e.S.CloneFormula()
	}

	set := strat.seedSet()
	limit := strat.maxIter()
	every := strat.checkpointEvery()
	var (
		next     atomic.Int64
		iters    atomic.Int64
		refuted  atomic.Int64
		mu       sync.Mutex // guards set, firstErr, and Checkpoint calls
		firstErr error
		wg       sync.WaitGroup
	)
	iters.Store(int64(strat.ResumeIterations))
	next.Store(-1)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			for _, c := range clones {
				c.Interrupt()
			}
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(s *sat.Solver) {
			defer wg.Done()
			// A panicking worker (injected fault, genuine bug) fails
			// the mine with a typed error instead of crashing the
			// process; the other workers are interrupted.
			defer func() {
				if p := recover(); p != nil {
					fail(sat.RecoverAsError(p))
				}
			}()
			for {
				i := int(next.Add(1))
				if i >= len(cubes) {
					return
				}
				for {
					st := s.Solve(cubes[i]...)
					if st == sat.Unsat {
						refuted.Add(1)
						break // cube exhausted; steal the next one
					}
					if st != sat.Sat {
						var cause error
						if be := s.BudgetErr(); be != nil {
							cause = be
						}
						fail(unknownErr("mining", st, cause))
						return
					}
					n := iters.Add(1)
					if n > int64(limit) {
						fail(fmt.Errorf("%w (%d iterations)", ErrMineLimit, n))
						return
					}
					obs := decodeObs(e, s, svs)
					mu.Lock()
					set.Add(obs)
					if strat.Checkpoint != nil && n%int64(every) == 0 {
						strat.Checkpoint(set, int(n))
					}
					mu.Unlock()
					s.AddClause(blockingClause(s, lits)...)
				}
			}
		}(clones[w])
	}
	wg.Wait()
	stats := MineStats{Iterations: int(iters.Load())}
	if strat.Stats != nil {
		strat.Stats.Cubes += len(cubes)
		strat.Stats.CubesRefuted += int(refuted.Load())
	}
	if firstErr != nil {
		// The partial set remains sound — every observation in it is a
		// real serial observation — so return it for checkpointing.
		return set, stats, firstErr
	}
	return set, stats, nil
}

// CheckInclusionWith is CheckInclusion under a parallelism strategy:
// the one-model case of the SweepCheck protocol. The verdict and
// counterexample semantics are identical to the serial check for every
// strategy; on Sat the encoder's solver is positioned at the
// counterexample model (adopted from the winning clone when a parallel
// path found it).
func CheckInclusionWith(e *encode.Encoder, entries []Entry, set *Set, strat Strategy) (*Counterexample, error) {
	c, err := NewSweepCheck(e, entries)
	if err != nil {
		return nil, err
	}
	if cex, err := c.ErrorCheck(e.Model, strat); cex != nil || err != nil {
		return cex, err
	}
	if err := c.BeginInclusion(set); err != nil {
		return nil, err
	}
	return c.Inclusion(e.Model, strat)
}
