package core

// This file implements multi-backend checking: the Backend option, the
// cost-based router that picks the polynomial reads-from engine or a
// SAT strategy per check, and the rf check path itself. The router is
// conservative by construction — the rf backend is only consulted on
// programs its Scan proves to be inside the exactly-modeled fragment,
// and any rf failure (inapplicability discovered late, budget
// exhaustion) falls back to SAT within the same round, never the
// reverse.

import (
	"errors"
	"fmt"
	"time"

	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
	"checkfence/internal/rf"
	"checkfence/internal/trace"
)

// Backend selects the verdict engine of a check.
type Backend int

const (
	// BackendAuto (the default) routes per check: the polynomial
	// reads-from engine when the program is in its fragment and the
	// static cost model predicts a win, otherwise SAT.
	BackendAuto Backend = iota
	// BackendSAT forces the SAT backend, the reference path.
	BackendSAT
)

func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendSAT:
		return "sat"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// ParseBackend converts a -backend flag value.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "auto", "":
		return BackendAuto, nil
	case "sat", "serial":
		return BackendSAT, nil
	}
	return 0, fmt.Errorf("core: unknown backend %q (want auto or sat)", s)
}

// Static cost model of the router. The rf enumeration is worst-case
// exponential in residual case splits and in loads-per-location, so
// `auto` only routes to it when every dimension is litmus-scale.
const (
	rfMaxInstrs     = 512
	rfMaxThreads    = 8
	rfMaxEvents     = 64
	rfMaxLocs       = 16
	rfMaxCandidates = 1 << 16
)

// routeDecision is the router's choice for one check attempt.
type routeDecision struct {
	useRF  bool
	prog   *rf.Program
	reason string
}

// routeRF decides whether this attempt runs on the reads-from engine.
func routeRF(opts Options, unrolled *harness.Unrolled) routeDecision {
	if opts.Backend != BackendAuto {
		return routeDecision{reason: opts.Backend.String()}
	}
	if opts.SpecSource == SpecRef && opts.Spec == nil {
		return routeDecision{reason: "sat (refset mining configured)"}
	}
	p, err := rf.Scan(unrolled.Threads)
	if err != nil {
		return routeDecision{reason: "sat (" + err.Error() + ")"}
	}
	if unrolled.Instrs > rfMaxInstrs || len(unrolled.Threads) > rfMaxThreads ||
		p.NumEvents() > rfMaxEvents || p.NumLocs() > rfMaxLocs ||
		p.Candidates() > rfMaxCandidates {
		return routeDecision{reason: fmt.Sprintf(
			"sat (rf cost model: %d instrs, %d threads, %d events, %d locations, %d candidates)",
			unrolled.Instrs, len(unrolled.Threads), p.NumEvents(), p.NumLocs(), p.Candidates())}
	}
	return routeDecision{useRF: true, prog: p, reason: "rf"}
}

// runCheckRF performs mining and the inclusion check of res.Model on
// the reads-from engine, mirroring the SAT round's contract: a
// validated counterexample decides res as failing, and res stays
// undecided when it passed at these bounds. Fragment programs cannot
// reach runtime errors, so the sequential-bug phase is vacuous here.
func runCheckRF(res *Result, built *harness.Built, unrolled *harness.Unrolled,
	p *rf.Program, opts Options) error {

	var est rf.EnumStats
	defer func() {
		res.Stats.RFSteps += est.Steps
		res.Stats.RFExecs += est.Execs
		res.Stats.RFConsistent += est.Consistent
		res.Stats.RFSplits += est.Splits
	}()
	budget := rf.Budget{}

	mineStart := time.Now()
	theSpec := opts.Spec
	if theSpec == nil {
		set, st, err := p.Observations(memmodel.Serial, built.Entries, budget)
		est.Add(st)
		if err != nil {
			return fmt.Errorf("rf mining: %w", err)
		}
		theSpec = set
	}
	res.Spec = theSpec
	res.Stats.ObsSetSize = theSpec.Len()
	res.Stats.MineTime += time.Since(mineStart)

	refuteStart := time.Now()
	names, _ := trace.HarnessNames(built, unrolled)
	cex, st, err := p.CheckInclusion(res.Model, built.Entries, theSpec, names, budget)
	est.Add(st)
	res.Stats.RefuteTime += time.Since(refuteStart)
	if err != nil {
		return fmt.Errorf("rf inclusion: %w", err)
	}
	if cex == nil {
		return nil // passed at these bounds; caller probes
	}
	if err := validateCex(cex, built, unrolled, opts); err != nil {
		return err
	}
	res.fail(cex)
	return nil
}

// rfFallbackable reports whether an rf failure may silently fall back
// to SAT within the same attempt: only the engine's own
// inapplicability and budget signals qualify. Anything else (a
// validation failure, an internal error) must propagate — falling back
// would hide a bug in CheckFence itself.
func rfFallbackable(err error) bool {
	return errors.Is(err, rf.ErrNotApplicable) || errors.Is(err, rf.ErrBudget)
}
