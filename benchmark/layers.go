package main

// This file holds the traced run's instruments: an in-memory span
// recorder and the layer replay, which replays one check through the
// public functions of each layer in core.checkAttempt's order so every
// layer's time and work can be read from outside the program.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"checkfence/internal/cparse"
	"checkfence/internal/ctrans"
	"checkfence/internal/encode"
	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
	"checkfence/internal/ranges"
	"checkfence/internal/rf"
	"checkfence/internal/sat"
	"checkfence/internal/spec"
	"checkfence/internal/trace"
	"checkfence/internal/validate"
)

// span is one timed interval of the traced run. Spans of one check
// share Check; Parent is 0 for a top-level span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Check  string  `json:"check"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) now() float64 { return float64(time.Since(tr.t0)) / 1e6 }

func (tr *tracer) begin(name, check string, parent int) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent,
		Check: check, Name: name, Start: tr.now()})
	return len(tr.spans)
}

func (tr *tracer) end(id int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[id-1].End = tr.now()
}

// selfTimes returns each span's duration minus the part of its
// interval that its direct children cover, indexed by span ID - 1.
func (tr *tracer) selfTimes() []float64 {
	children := map[int][]span{}
	for _, s := range tr.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]float64, len(tr.spans))
	for i, s := range tr.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerSelfMs sums self time per span name, as "<name>_ms".
func (tr *tracer) layerSelfMs(into map[string]float64) {
	for i, st := range tr.selfTimes() {
		into[tr.spans[i].Name+"_ms"] += st
	}
}

// checkSpan names the root span of one replayed check; its self time
// is what the layer spans leave unattributed.
const checkSpan = "check"

// unattributed returns Σ root self time ÷ Σ root duration over the
// replayed checks, and the worst single check's share.
func (tr *tracer) unattributed() (total, worst float64) {
	self := tr.selfTimes()
	var s, d float64
	for i, sp := range tr.spans {
		if sp.Name != checkSpan || sp.dur() <= 0 {
			continue
		}
		s += self[i]
		d += sp.dur()
		worst = max(worst, self[i]/sp.dur())
	}
	if d == 0 {
		return 0, 0
	}
	return s / d, worst
}

// maxBoundRounds mirrors core's default cap on lazy-unrolling rounds.
const maxBoundRounds = 12

// layerReplay replays checks through the layers' public functions,
// recording one span per layer call and adding work counts to acc.
type layerReplay struct {
	tr  *tracer
	acc map[string]float64
	cfg encode.Config

	check string // id shared by the spans of the current check
	root  int
}

func newLayerReplay(tr *tracer, acc map[string]float64) *layerReplay {
	return &layerReplay{tr: tr, acc: acc, cfg: encode.DefaultConfig()}
}

func (d *layerReplay) timed(name string, f func() error) error {
	id := d.tr.begin(name, d.check, d.root)
	err := f()
	d.tr.end(id)
	return err
}

// final holds the sizes and solver work of a check's last inclusion
// check, which is what core.Stats reports too.
type final struct {
	instrs, accesses, iterations, obs int
	gates, vars, clauses, preClauses  int
	preprocessMs                      float64
	conflicts, props, decisions       int64
}

// run replays one check and returns its verdict and observation set
// (nil on a sequential bug). useRF selects the reads-from engine where
// core's router chose it; the route itself is core's cost model.
func (d *layerReplay) run(id string, impl *harness.Impl, test *harness.Test,
	model memmodel.Model, useRF bool) (string, *spec.Set, error) {

	d.check = id
	d.root = d.tr.begin(checkSpan, id, 0)
	defer d.tr.end(d.root)

	// harness.Build parses and translates internally; the two stages
	// are replayed first so their cost is visible on its own.
	var file *cparse.File
	if err := d.timed("cparse.parse", func() (err error) {
		file, err = cparse.Parse(impl.Source)
		return err
	}); err != nil {
		return "", nil, err
	}
	if err := d.timed("ctrans.translate", func() error {
		_, err := ctrans.Translate(file)
		return err
	}); err != nil {
		return "", nil, err
	}
	var built *harness.Built
	if err := d.timed("harness.build", func() (err error) {
		built, err = harness.Build(impl, test)
		return err
	}); err != nil {
		return "", nil, err
	}

	var fin final
	defer func() {
		d.acc["unroll.instrs"] += float64(fin.instrs)
		d.acc["unroll.accesses"] += float64(fin.accesses)
		d.acc["spec.mine_iterations"] += float64(fin.iterations)
		d.acc["spec.obs_set_size"] += float64(fin.obs)
		d.acc["encode.gates"] += float64(fin.gates)
		d.acc["encode.cnf_vars"] += float64(fin.vars)
		d.acc["encode.cnf_clauses"] += float64(fin.clauses)
		d.acc["pre_clauses"] += float64(fin.preClauses)
		d.acc["sat.preprocess_ms"] += fin.preprocessMs
		d.acc["sat.conflicts"] += float64(fin.conflicts)
		d.acc["sat.propagations"] += float64(fin.props)
		d.acc["sat.decisions"] += float64(fin.decisions)
	}()

	bounds := map[string]int{}
	unrolled, info, err := d.front(built, bounds)
	if err != nil {
		return "", nil, err
	}
	d.acc["core.bound_rounds"]++
	verdict, set, done, err := d.runCheck(built, unrolled, info, model, useRF, &fin)
	if err != nil || done {
		return verdict, set, err
	}
	grew := false
	for round := 0; ; round++ {
		if round >= maxBoundRounds {
			return "", nil, fmt.Errorf("loop bounds did not converge after %d rounds", round)
		}
		g, err := d.probe(unrolled, info, probeModel(model), bounds)
		if err != nil {
			return "", nil, err
		}
		if !g {
			break
		}
		grew = true
		d.acc["core.bound_rounds"]++
		if unrolled, info, err = d.front(built, bounds); err != nil {
			return "", nil, err
		}
	}
	if !grew {
		return verdict, set, nil
	}
	verdict, set, _, err = d.runCheck(built, unrolled, info, model, useRF, &fin)
	return verdict, set, err
}

// front unrolls the harness at the given bounds and analyzes ranges.
func (d *layerReplay) front(built *harness.Built, bounds map[string]int) (*harness.Unrolled, *ranges.Info, error) {
	var unrolled *harness.Unrolled
	if err := d.timed("unroll.unroll", func() (err error) {
		unrolled, err = built.Unroll(bounds)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var info *ranges.Info
	d.timed("ranges.analyze", func() error {
		info = ranges.Analyze(unrolled.Bodies)
		return nil
	})
	return unrolled, info, nil
}

// probeModel mirrors core: loop bounds are probed under SC for every
// model weaker than SC.
func probeModel(m memmodel.Model) memmodel.Model {
	if memmodel.SequentialConsistency.StrongerThan(m) && m != memmodel.SequentialConsistency {
		return memmodel.SequentialConsistency
	}
	return m
}

// probe asks whether any loop can exceed its bound and grows the
// bounds of those that can.
func (d *layerReplay) probe(unrolled *harness.Unrolled, info *ranges.Info,
	model memmodel.Model, bounds map[string]int) (bool, error) {

	hasMarkers := false
	for _, li := range unrolled.Loops {
		hasMarkers = hasMarkers || !li.Spin
	}
	if !hasMarkers {
		return false, nil
	}
	enc := encode.NewWithConfig(model, info, d.cfg)
	if err := d.timed("encode.encode", func() error {
		if err := enc.Encode(unrolled.Threads); err != nil {
			return err
		}
		enc.AssertSomeOverflow()
		return nil
	}); err != nil {
		return false, err
	}
	var st sat.Status
	d.timed("sat.probe_solve", func() error {
		st = enc.S.Solve()
		return nil
	})
	switch st {
	case sat.Unsat:
		return false, nil
	case sat.Sat:
	default:
		return false, fmt.Errorf("bound probe: solver stopped without a verdict")
	}
	grew := false
	for _, id := range enc.OverflowingLoops() {
		key, ok := unrolled.LoopKey(id)
		if !ok {
			return false, fmt.Errorf("unknown loop id %d", id)
		}
		bounds[key] = unrolled.BoundFor(id) + 1
		grew = true
	}
	if !grew {
		return false, fmt.Errorf("overflow probe satisfiable but no loop flagged")
	}
	return true, nil
}

// runCheck mines the specification and runs the inclusion check at
// the current bounds; done reports a counterexample.
func (d *layerReplay) runCheck(built *harness.Built, unrolled *harness.Unrolled,
	info *ranges.Info, model memmodel.Model, useRF bool, fin *final) (string, *spec.Set, bool, error) {

	fin.instrs = unrolled.Instrs
	fin.accesses = unrolled.Loads + unrolled.Stores

	var prog *rf.Program
	var scanErr error
	d.timed("rf.scan", func() error {
		prog, scanErr = rf.Scan(unrolled.Threads)
		return nil
	})
	if useRF {
		if scanErr != nil {
			return "", nil, false, fmt.Errorf("core routed to rf but rf.Scan failed: %w", scanErr)
		}
		return d.runRF(prog, built, unrolled, model, fin)
	}

	serial := encode.NewWithConfig(memmodel.Serial, info, d.cfg)
	if err := d.timed("encode.encode", func() error {
		if err := serial.Encode(unrolled.Threads); err != nil {
			return err
		}
		serial.AssertNoOverflow()
		return nil
	}); err != nil {
		return "", nil, false, err
	}
	var set *spec.Set
	var ms spec.MineStats
	err := d.timed("spec.mine", func() (err error) {
		set, ms, err = spec.MineWith(serial, built.Entries, spec.Strategy{})
		return err
	})
	var seqBug *spec.SeqBugError
	if errors.As(err, &seqBug) {
		cex := &spec.Counterexample{Obs: seqBug.Obs, IsErr: true,
			Err: "runtime error in serial execution"}
		return vSeqBug, nil, true, d.decode(serial, built, unrolled, cex)
	}
	if err != nil {
		return "", nil, false, err
	}
	fin.iterations, fin.obs = ms.Iterations, set.Len()

	enc := encode.NewWithConfig(model, info, d.cfg)
	if err := d.timed("encode.encode", func() error {
		if err := enc.Encode(unrolled.Threads); err != nil {
			return err
		}
		enc.AssertNoOverflow()
		return nil
	}); err != nil {
		return "", nil, false, err
	}
	var cex *spec.Counterexample
	if err := d.timed("spec.inclusion", func() (err error) {
		cex, err = spec.CheckInclusionWith(enc, built.Entries, set, spec.Strategy{})
		return err
	}); err != nil {
		return "", nil, false, err
	}
	st := enc.S.Stats()
	fin.gates, fin.vars, fin.clauses, fin.preClauses = enc.B.NumGates(), st.Vars, st.Clauses, st.PreClauses
	if st.PreClauses == 0 {
		fin.preClauses = st.Clauses // preprocessing did not run
	}
	fin.preprocessMs = float64(st.PreprocessTime) / 1e6
	fin.conflicts, fin.props, fin.decisions = st.Conflicts, st.Propagations, st.Decisions
	if cex == nil {
		return vPass, set, false, nil
	}
	return vFail, set, true, d.decode(enc, built, unrolled, cex)
}

// runRF is the reads-from engine's mining and inclusion check.
func (d *layerReplay) runRF(prog *rf.Program, built *harness.Built, unrolled *harness.Unrolled,
	model memmodel.Model, fin *final) (string, *spec.Set, bool, error) {

	var set *spec.Set
	var cex *trace.Trace
	var st rf.EnumStats
	err := d.timed("rf.check", func() error {
		s, es, err := prog.Observations(memmodel.Serial, built.Entries, rf.Budget{})
		st.Add(es)
		if err != nil {
			return err
		}
		set = s
		names, _ := trace.HarnessNames(built, unrolled)
		cex, es, err = prog.CheckInclusion(model, built.Entries, set, names, rf.Budget{})
		st.Add(es)
		return err
	})
	d.acc["rf.execs"] += float64(st.Execs)
	d.acc["rf.steps"] += float64(st.Steps)
	if err != nil {
		return "", nil, false, err
	}
	fin.obs = set.Len()
	if cex == nil {
		return vPass, set, false, nil
	}
	err = d.timed("validate.check", func() error {
		return validate.Check(cex, unrolled.Threads, built.Unit.Prog)
	})
	return vFail, set, true, err
}

// decode builds the counterexample trace and validates it.
func (d *layerReplay) decode(enc *encode.Encoder, built *harness.Built,
	unrolled *harness.Unrolled, cex *spec.Counterexample) error {

	var t *trace.Trace
	d.timed("trace.build", func() error {
		t = trace.Build(enc, built, unrolled, cex)
		return nil
	})
	return d.timed("validate.check", func() error {
		return validate.Check(t, unrolled.Threads, built.Unit.Prog)
	})
}
