package encode

import (
	"fmt"
	"math/bits"
	"slices"

	"checkfence/internal/bitvec"
	"checkfence/internal/faultinject"
	"checkfence/internal/lsl"
	"checkfence/internal/memmodel"
	"checkfence/internal/ranges"
	"checkfence/internal/sat"
)

// Access is one memory access (load or store) of the unrolled test.
type Access struct {
	Idx     int  // index into Encoder.Accesses
	Thread  int  // thread index; 0 is the initialization pseudo-thread
	ProgIdx int  // program-order position within the thread
	IsLoad  bool // load or store
	OpID    int  // operation invocation id (-1 for none)
	Group   int  // atomic block id (-1 for none)

	Exec    bitvec.Node // guard: does this access execute
	Addr    SymVal
	Val     SymVal  // store: value written; load: value read
	AddrReg lsl.Reg // source register of the address, for alias queries
	Desc    string  // human-readable source form for traces
}

// FenceEv is a fence occurrence (kept separate from accesses; fences
// do not participate in the memory order, they constrain it).
type FenceEv struct {
	Thread  int
	ProgIdx int
	Kind    lsl.FenceKind
	Exec    bitvec.Node
}

// HavocEv is one havoc occurrence: a nondeterministic value the SAT
// solver chooses freely. Recording them lets trace decoding recover
// the concrete choices of a counterexample so the replay validator can
// feed the same values back through the reference interpreter.
type HavocEv struct {
	Thread int
	Exec   bitvec.Node // guard: does this havoc execute
	Val    bitvec.BV   // the chosen value (zero-extended on decode)
}

// ErrCond is a potential runtime error with its condition.
type ErrCond struct {
	Cond bitvec.Node
	Msg  string
}

// Thread is one input thread: a name, its unrolled operation
// segments, and the operation ids they belong to.
type Thread struct {
	Name string
	// Segments are compiled in order; all statements of segment i
	// belong to operation OpIDs[i].
	Segments [][]lsl.Stmt
	OpIDs    []int
}

// Config selects the formula-minimization layers applied while
// building and before solving Φ. The zero value disables everything;
// DefaultConfig enables all layers.
type Config struct {
	// Minimize enables the circuit-level minimization: two-level AIG
	// structural rewriting at gate construction and Plaisted–Greenbaum
	// polarity-aware CNF encoding instead of full two-polarity Tseitin.
	Minimize bool
	// Preprocess marks a formula armed for CNF preprocessing:
	// PreprocessCNF arms its solver (sat.Solver.ArmPreprocess), which
	// runs root-unit simplification and SatELite-style bounded variable
	// elimination once the formula's search passes a fixed number of
	// conflicts, and the solver loads the clauses in bulk, unwatched
	// (sat.Solver.BulkLoad), attaching them all at the first solve.
	// Only the inclusion formula is armed. Leave it off for a formula
	// solved as encoded (the bound probes, the Serial mine): it then
	// loads one clause at a time, propagating units as they arrive,
	// which keeps it smaller.
	Preprocess bool
	// OrderReduce enables the model-aware reduction of the memory-order
	// encoding: order variables forced by program order together with
	// the fence and same-address axioms become constants, the
	// interchangeable order pairs of an atomic block (and, under
	// Serial, of an operation) collapse into one variable, and the
	// order theory ranges over the reduced skeleton only.
	OrderReduce bool
	// Abort, when non-nil, is polled between encode phases and
	// periodically inside the heavy compilation and axiom loops; a
	// non-nil return aborts Encode with that error. Budgeted checks
	// install a deadline poll here so a formula too large to build in
	// time fails promptly instead of after the full encode.
	Abort func() error
	// Faults, when non-nil, installs fault-injection hooks on the
	// encoder and its solver (see internal/faultinject).
	Faults faultinject.Faults
}

// DefaultConfig returns the full minimization pipeline.
func DefaultConfig() Config {
	return Config{Minimize: true, Preprocess: true, OrderReduce: true}
}

// Encoder assembles Φ for one (test, model) pair.
type Encoder struct {
	S     *sat.Solver
	B     *bitvec.Builder
	Model memmodel.Model
	Info  *ranges.Info
	Cfg   Config

	W int // component bit width
	D int // pointer depth bound

	Accesses []*Access
	Fences   []*FenceEv
	Havocs   []*HavocEv
	Errors   []ErrCond
	Overflow map[int]bitvec.Node // loop id -> "bound exhausted" guard

	// Envs[i] is the final register environment of thread i, from
	// which the harness extracts observed argument/return values.
	Envs []map[lsl.Reg]SymVal

	order     [][]bitvec.Node // order[i][j] for i<j: node for i <M j
	numGroups int

	// Order-encoding reduction state (Cfg.OrderReduce): orderRep maps
	// each access to the representative of its merge class (identity
	// when reduction is off), and the counters record how many pairs
	// were fixed to constants beyond the baseline rules and how many
	// shared an already-allocated variable.
	orderRep        []int
	OrderVarsFixed  int
	OrderVarsMerged int

	// Model-sweep state (NewSweepWithConfig): the swept models in
	// decreasing strength, one selector variable per model, and the
	// count of selector-guarded program-order unit clauses emitted.
	// Empty on single-model encoders. Model holds the weakest swept
	// model — its axioms are the unguarded base every stronger model's
	// guarded deltas build on.
	sweep         []memmodel.Model
	selectors     []bitvec.Node
	SelectorUnits int

	// abortErr caches the first non-nil Cfg.Abort result; once set,
	// every remaining encode loop bails without re-polling.
	abortErr error
	// stmtTick rate-limits the abort poll inside statement compilation.
	stmtTick int
}

// New creates an encoder over a fresh solver with the default
// minimization configuration.
func New(model memmodel.Model, info *ranges.Info) *Encoder {
	return NewWithConfig(model, info, DefaultConfig())
}

// NewWithConfig creates an encoder over a fresh solver with an
// explicit minimization configuration.
func NewWithConfig(model memmodel.Model, info *ranges.Info, cfg Config) *Encoder {
	return build(nil, model, nil, info, cfg)
}

// NewSweepWithConfig creates a model-sweep encoder: one formula that
// serves every model in models, each selected by assuming its selector
// literals (SelectorLits). The base axioms are the weakest model's —
// sound for every stronger model, whose executions are a subset — and
// each stronger model's additional unconditional program-order
// requirements become unit clauses guarded by that model's selector
// (assertSweepUnits). Serial is rejected: its seriality axioms and
// operation merge classes reshape the formula itself, not just the
// order constraints, so it cannot share an encoding with the hardware
// models.
func NewSweepWithConfig(models []memmodel.Model, info *ranges.Info, cfg Config) (*Encoder, error) {
	sweep, err := checkSweep(models)
	if err != nil {
		return nil, err
	}
	return build(nil, memmodel.Weakest(sweep), sweep, info, cfg), nil
}

// NewReusing creates the encoder for models — a single-model encoder
// (as NewWithConfig) for one, a sweep encoder (as NewSweepWithConfig)
// for several — on the solver and circuit builder of prev, so the new
// formula grows none of the per-variable and per-gate arrays the
// previous one already grew. prev must be an encoder nothing reads any
// more, whose Encode succeeded: NewReusing resets its solver and
// builder, and prev itself is emptied, so a stale read fails loudly.
// A nil prev allocates a fresh solver and builder.
func NewReusing(prev *Encoder, models []memmodel.Model, info *ranges.Info, cfg Config) (*Encoder, error) {
	if len(models) == 1 {
		return build(prev, models[0], nil, info, cfg), nil
	}
	sweep, err := checkSweep(models)
	if err != nil {
		return nil, err
	}
	return build(prev, memmodel.Weakest(sweep), sweep, info, cfg), nil
}

// checkSweep validates the models of a sweep encoder.
func checkSweep(models []memmodel.Model) ([]memmodel.Model, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("encode: sweep needs at least one model")
	}
	seen := map[memmodel.Model]bool{}
	sweep := make([]memmodel.Model, 0, len(models))
	for _, m := range models {
		if m == memmodel.Serial {
			return nil, fmt.Errorf("encode: the Serial model cannot join a sweep")
		}
		if seen[m] {
			return nil, fmt.Errorf("encode: duplicate sweep model %s", m)
		}
		seen[m] = true
		sweep = append(sweep, m)
	}
	return sweep, nil
}

// build is the one construction path of an encoder: over model, swept
// over sweep when that is non-nil, on a fresh solver and builder when
// prev is nil and on prev's, reset, otherwise.
func build(prev *Encoder, model memmodel.Model, sweep []memmodel.Model, info *ranges.Info, cfg Config) *Encoder {
	var (
		s *sat.Solver
		b *bitvec.Builder
	)
	if prev != nil {
		s, b = prev.S, prev.B
		*prev = Encoder{}
		s.Reset()
		b.Reset()
	} else {
		s = sat.New()
		b = bitvec.NewBuilder(s)
	}
	if cfg.Preprocess {
		s.BulkLoad()
	}
	b.SetMinimize(cfg.Minimize)
	if cfg.Faults != nil {
		s.SetFaults(cfg.Faults)
	}
	e := &Encoder{
		S:        s,
		B:        b,
		Model:    model,
		Info:     info,
		Cfg:      cfg,
		W:        info.IntWidth,
		D:        info.MaxPtrDepth,
		Overflow: map[int]bitvec.Node{},
		sweep:    sweep,
	}
	if e.D < 1 {
		e.D = 1
	}
	return e
}

// SweepModels returns the swept models (nil on single-model encoders).
func (e *Encoder) SweepModels() []memmodel.Model { return e.sweep }

// aborted polls the abort hook, caching the first error so the heavy
// encode loops can stop mid-phase with one cheap comparison.
func (e *Encoder) aborted() bool {
	if e.abortErr != nil {
		return true
	}
	if e.Cfg.Abort != nil {
		e.abortErr = e.Cfg.Abort()
	}
	return e.abortErr != nil
}

// pollAbort is the rate-limited abort check used in the per-statement
// compilation loop.
func (e *Encoder) pollAbort() error {
	e.stmtTick++
	if e.stmtTick&63 == 0 && e.aborted() {
		return e.abortErr
	}
	return nil
}

// PreprocessCNF arms CNF preprocessing over the clauses emitted so
// far (sat.Solver.ArmPreprocess: the pass runs inside a later solve,
// once the formula's search has passed a fixed number of conflicts),
// honoring the incremental contract: the given root literals (error
// literal, observation bits — anything later clauses, assumptions, or
// blocking clauses will mention) are frozen against elimination, and
// so is every memory-order variable, by the order theory that
// constrains it (sat.Solver.SetOrder), and every variable created
// from now on, such as the gates of exclusion clauses. Callers must
// materialize those roots before calling this, and only add clauses
// over frozen (or fresh) variables afterwards. A no-op unless
// Cfg.Preprocess is set.
func (e *Encoder) PreprocessCNF(roots ...sat.Lit) {
	if !e.Cfg.Preprocess {
		return
	}
	for _, l := range roots {
		e.S.Freeze(l.Var())
	}
	// Sweep selector variables are assumed on every per-model solve and
	// must survive elimination just like the order variables.
	for _, v := range e.SelectorSatVars() {
		e.S.Freeze(v)
	}
	e.S.ArmPreprocess()
}

// Encode compiles all threads and asserts the memory model axioms.
// Thread 0 must be the initialization pseudo-thread (possibly empty);
// its accesses are ordered before all others and execute sequentially.
// A configured Abort hook can stop the build between phases and inside
// the heavy loops; Encode then returns the hook's error.
func (e *Encoder) Encode(threads []Thread) error {
	if e.Cfg.Faults != nil && e.Cfg.Faults.Fire(faultinject.EncodePanic) {
		panic(faultinject.Injected{Site: faultinject.EncodePanic})
	}
	for ti, th := range threads {
		if e.aborted() {
			return e.abortErr
		}
		env, err := e.compileThread(ti, th)
		if err != nil {
			return fmt.Errorf("encode: thread %d (%s): %w", ti, th.Name, err)
		}
		e.Envs = append(e.Envs, env)
	}
	for _, phase := range []func(){e.buildOrder, e.assertOrderAxioms, e.assertSweepUnits, e.assertValueAxioms} {
		if e.aborted() {
			return e.abortErr
		}
		phase()
	}
	if e.abortErr != nil {
		// A mid-phase abort leaves the formula incomplete; surface it.
		return e.abortErr
	}
	return nil
}

// mLess returns the node "access i happens before access j in memory
// order". It is defined for i != j.
func (e *Encoder) mLess(i, j int) bitvec.Node {
	if i < j {
		return e.order[i][j-i-1]
	}
	return e.order[j][i-j-1].Not()
}

// buildOrder allocates the memory order relation. Pairs whose order is
// fixed by the model (program order under SC/Serial, initialization
// before everything, atomic-block internal order) become constants,
// which shrinks the formula considerably without losing executions:
// the order of non-executed accesses is irrelevant to all other
// axioms, so fixing it is always sound.
//
// With Cfg.OrderReduce, two further model-aware reductions apply
// before any variable is allocated. First, pairs forced by the fence
// or same-address axioms under constant-true execution guards become
// constants too (orderForced): the axiom's clause would be a unit, so
// substituting the constant is equivalence-preserving. Second, the
// accesses of one atomic block (and, under Serial, of one operation)
// form a merge class: the atomicity/seriality axioms force every
// member to relate identically to any outside access, so all pairs
// (member, z) share a single variable keyed on the class
// representatives. A constant reaching one member pair therefore fixes
// the whole class pair — exactly what the equivalence axioms would
// have propagated — and assertContiguous/assertOrderAxioms skip the
// constraints the identification already discharges. Last, the
// constants are closed under transitivity (closeOrder), so the order
// theory never has to imply a pair from two constants.
func (e *Encoder) buildOrder() {
	n := len(e.Accesses)
	e.orderRep = e.orderClasses()
	e.order = make([][]bitvec.Node, n)
	for i := 0; i < n; i++ {
		e.order[i] = make([]bitvec.Node, n-i-1)
	}

	type pair [2]int
	// Pass 1: collect constants per class pair. Keys are ordered rep
	// pairs; the node is oriented "k[0] before k[1]".
	fixed := map[pair]bitvec.Node{}
	before := func(i, j int) { // access i is forced before access j
		a, b := e.orderRep[i], e.orderRep[j]
		if a == b {
			return // intra-class pairs are handled in pass 2
		}
		node := bitvec.True
		if a > b {
			a, b = b, a
			node = bitvec.False
		}
		if old, ok := fixed[pair{a, b}]; ok {
			if old != node {
				// The forcing rules only ever order program-order-earlier
				// members of one class before later outsiders (and dually),
				// so two members can never disagree; reaching this branch
				// would mean the merge classes are unsound.
				panic("encode: contradictory forced memory order in reduction")
			}
			return
		}
		fixed[pair{a, b}] = node
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := e.Accesses[i], e.Accesses[j]
			switch {
			case a.Thread == 0 && b.Thread != 0:
				before(i, j) // init precedes everything
			case b.Thread == 0 && a.Thread != 0:
				before(j, i)
			case a.Thread == b.Thread && e.progOrderFixed(a, b):
				before(i, j) // accesses are created in program order
			case e.orderForced(i, j):
				before(i, j)
			}
		}
	}
	if e.Cfg.OrderReduce {
		// Close the constants under transitivity: a pair two constant
		// pairs imply would otherwise stay a variable, fixed only when
		// the order theory first propagates. before keeps the pairs
		// already fixed.
		edges := make([][2]int, 0, len(fixed))
		for k, node := range fixed {
			if node == bitvec.True {
				edges = append(edges, k)
			} else {
				edges = append(edges, [2]int{k[1], k[0]})
			}
		}
		for _, k := range closeOrder(n, edges) {
			before(k[0], k[1])
		}
	}

	// Pass 2: assign nodes, allocating one variable per unfixed class
	// pair and counting the reduction's wins against the baseline rules.
	vars := map[pair]bitvec.Node{}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ra, rb := e.orderRep[i], e.orderRep[j]
			if ra == rb {
				// Same class: members are created in program order and
				// the class grouping guarantees the pair is fixed.
				e.order[i][j-i-1] = bitvec.True
				continue
			}
			k, inv := pair{ra, rb}, false
			if ra > rb {
				k, inv = pair{rb, ra}, true
			}
			node, isFixed := fixed[k]
			if !isFixed {
				var seen bool
				if node, seen = vars[k]; !seen {
					node = e.B.Var()
					vars[k] = node
				} else {
					e.OrderVarsMerged++
				}
			} else if !e.baselineFixed(i, j) {
				e.OrderVarsFixed++
			}
			if inv {
				node = node.Not()
			}
			e.order[i][j-i-1] = node
		}
	}
}

// closeOrder returns the transitive closure of the given "before"
// edges over nodes 0..n-1: every pair (a, b), a before b, in
// increasing order of a, then b. It panics when the
// edges contain a cycle: constants that order an access before itself
// would make every execution infeasible, which means the forcing rules
// are unsound.
func closeOrder(n int, edges [][2]int) [][2]int {
	// Warshall's algorithm over one bitset row per node.
	words := (n + 63) / 64
	reach := make([]uint64, n*words)
	row := func(i int) []uint64 { return reach[i*words : (i+1)*words] }
	has := func(i, j int) bool { return row(i)[j/64]&(1<<(j%64)) != 0 }
	for _, e := range edges {
		row(e[0])[e[1]/64] |= 1 << (e[1] % 64)
	}
	for k := 0; k < n; k++ {
		rk := row(k)
		for i := 0; i < n; i++ {
			if has(i, k) {
				ri := row(i)
				for w := range ri {
					ri[w] |= rk[w]
				}
			}
		}
	}
	var out [][2]int
	for i := 0; i < n; i++ {
		if has(i, i) {
			panic("encode: contradictory forced memory order in reduction")
		}
		for j := 0; j < n; j++ {
			if has(i, j) {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// orderClasses computes the merge classes of the reduction: the
// accesses of one atomic block always relate identically to outsiders
// (atomicity axiom), as do the accesses of one operation under Serial
// (seriality axiom), so each class needs only one order variable per
// outside class. Returns the representative (lowest member index) per
// access; the identity map when reduction is off.
func (e *Encoder) orderClasses() []int {
	n := len(e.Accesses)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	if !e.Cfg.OrderReduce {
		return parent
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		parent[rb] = ra // smaller index becomes the representative
	}
	firstGroup := map[int]int{}
	firstOp := map[[2]int]int{}
	for i, a := range e.Accesses {
		if a.Group >= 0 {
			if f, ok := firstGroup[a.Group]; ok {
				union(f, i)
			} else {
				firstGroup[a.Group] = i
			}
		}
		if e.Model == memmodel.Serial && a.Thread != 0 && a.OpID >= 0 {
			k := [2]int{a.Thread, a.OpID}
			if f, ok := firstOp[k]; ok {
				union(f, i)
			} else {
				firstOp[k] = i
			}
		}
	}
	rep := make([]int, n)
	for i := range rep {
		rep[i] = find(i)
	}
	return rep
}

// baselineFixed reports whether the pair (i, j) is a constant under
// the baseline rules alone (without OrderReduce) — used to attribute
// the OrderVarsFixed counter to the reduction's own rules.
func (e *Encoder) baselineFixed(i, j int) bool {
	a, b := e.Accesses[i], e.Accesses[j]
	return a.Thread == 0 && b.Thread != 0 ||
		b.Thread == 0 && a.Thread != 0 ||
		a.Thread == b.Thread && e.progOrderFixed(a, b)
}

// orderForced reports whether the fence or same-address axioms force
// access i (program-order-earlier, same thread) before access j
// unconditionally. Only pairs whose execution guards are the constant
// True qualify: the axioms order the pair when every participant
// executes, and a constant guard discharges that hypothesis, so the
// axiom clause degenerates to the unit i <M j.
func (e *Encoder) orderForced(i, j int) bool {
	if !e.Cfg.OrderReduce {
		return false
	}
	a, b := e.Accesses[i], e.Accesses[j]
	if a.Thread != b.Thread || a.Thread == 0 || a.ProgIdx >= b.ProgIdx {
		return false
	}
	switch e.Model {
	case memmodel.TSO, memmodel.PSO, memmodel.Relaxed:
	default:
		return false // SC/Serial: program order is already unconditional
	}
	if a.Exec != bitvec.True || b.Exec != bitvec.True {
		return false
	}
	// A matching fence between the pair (assertFences).
	for _, f := range e.Fences {
		if f.Thread != a.Thread || f.Exec != bitvec.True {
			continue
		}
		if a.ProgIdx < f.ProgIdx && f.ProgIdx < b.ProgIdx &&
			f.Kind.OrdersBefore(a.IsLoad) && f.Kind.OrdersAfter(b.IsLoad) {
			return true
		}
	}
	// The same-address program-order axiom with statically equal
	// addresses (assertSameAddrProgramOrder; Relaxed and the PSO
	// store→store case — TSO has no conditional same-address axiom).
	if e.Model != memmodel.TSO && !b.IsLoad && !(e.Model == memmodel.PSO && a.IsLoad) {
		if la := e.ConstAddrLoc(a); la != "" && la == e.ConstAddrLoc(b) {
			return true
		}
	}
	return false
}

// progOrderFixed reports whether the model forces a (earlier in
// program order) before b unconditionally: always under SC and
// Serial, within one atomic block, for the initialization thread, and
// for the pairs each relaxed model keeps ordered (TSO relaxes only
// store→load; PSO additionally relaxes store→store, keeping loads in
// order; Relaxed keeps nothing unconditionally).
func (e *Encoder) progOrderFixed(a, b *Access) bool {
	if a.Thread == 0 {
		return true
	}
	if a.Group >= 0 && a.Group == b.Group {
		return true
	}
	return e.Model.KeepsProgramOrder(a.IsLoad, b.IsLoad)
}

// assertOrderAxioms installs the memory order's transitivity as the
// solver's order theory and emits the model's program-order axioms,
// fence constraints, and atomicity constraints.
func (e *Encoder) assertOrderAxioms() {
	installTransitivity(e, e.orderReps())
	switch e.Model {
	case memmodel.Relaxed, memmodel.PSO:
		e.assertSameAddrProgramOrder()
		e.assertFences()
	case memmodel.TSO:
		e.assertFences()
	}
	e.assertAtomicity()
	if e.Model == memmodel.Serial {
		e.assertSeriality()
	}
}

// installTransitivity makes the memory order over the merge-class
// representatives transitive; tests swap in the eager clauses.
var installTransitivity = (*Encoder).setOrderTheory

// orderReps returns the merge-class representatives in increasing
// order.
func (e *Encoder) orderReps() []int {
	reps := make([]int, 0, len(e.Accesses))
	for i := range e.Accesses {
		if e.orderRep[i] == i {
			reps = append(reps, i)
		}
	}
	return reps
}

// setOrderTheory installs "the memory order is a strict total order
// over the merge-class representatives" as the solver's order theory
// (sat.Solver.SetOrder). Merged pairs share their representative's
// node, so the order over the representatives orders every access.
// The theory propagates exactly what the paper's transitivity clauses
// (two per triple of accesses) would, and explains each implication
// and conflict with one of them, but the formula holds none:
// TransitivityClauses counts what it stands for.
func (e *Encoder) setOrderTheory(reps []int) {
	e.S.SetOrder(len(reps), func(a, b int) sat.Lit {
		switch m := e.mLess(reps[a], reps[b]); m {
		case bitvec.True:
			return sat.OrderTrue
		case bitvec.False:
			return sat.OrderFalse
		default:
			return e.B.Lit(m)
		}
	})
}

// TransitivityClauses returns the number of transitivity clauses the
// eager encoding would emit for this formula: two per triple of
// merge-class representatives, less those the constant pairs satisfy.
// The order theory stands in for them, so the count is computed, not
// emitted; it is the paper's cubic term of the formula size (Fig. 10).
//
// For the triple i < j < k of representatives, with a = i<j, b = j<k
// and c = i<k, the clause ¬a ∨ ¬b ∨ c is emitted unless a or b is the
// constant false or c the constant true, and a ∨ b ∨ ¬c unless a or b
// is true or c false. Distinct representative pairs never share a
// variable, so these are the only clauses that fold away.
func (e *Encoder) TransitivityClauses() int {
	if e.order == nil {
		return 0
	}
	reps := e.orderReps()
	n := len(reps)
	w := (n + 63) / 64
	// notF[a] and notT[a] hold the k > a whose pair a<k is not the
	// constant false, respectively true; row j of a product keeps the
	// k > j of the triple.
	notF, notT := make([]uint64, n*w), make([]uint64, n*w)
	for a := 0; a < n; a++ {
		for k := a + 1; k < n; k++ {
			m := e.mLess(reps[a], reps[k])
			if m != bitvec.False {
				notF[a*w+k>>6] |= 1 << (k & 63)
			}
			if m != bitvec.True {
				notT[a*w+k>>6] |= 1 << (k & 63)
			}
		}
	}
	total := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a := e.mLess(reps[i], reps[j])
			for x := j >> 6; x < w; x++ {
				if a != bitvec.False {
					total += bits.OnesCount64(notF[j*w+x] & notT[i*w+x])
				}
				if a != bitvec.True {
					total += bits.OnesCount64(notT[j*w+x] & notF[i*w+x])
				}
			}
		}
	}
	return total
}

// assertSameAddrProgramOrder emits the conditional same-address
// program-order axiom of the weak models. For Relaxed it is axiom 1:
// if x <p y, a(x) = a(y), and y is a store, then x <M y. For PSO only
// the store→store case remains conditional (load-first pairs are
// already unconditional); store→load pairs are relaxed (the store
// buffer forwards).
func (e *Encoder) assertSameAddrProgramOrder() {
	for i, a := range e.Accesses {
		for j, b := range e.Accesses {
			if a.Thread != b.Thread || a.ProgIdx >= b.ProgIdx || !e.orderFree(i, j) {
				continue
			}
			if b.IsLoad {
				continue
			}
			if e.Model == memmodel.PSO && a.IsLoad {
				continue // already fixed unconditionally
			}
			if !e.Info.MayAlias(a.AddrReg, b.AddrReg) {
				continue
			}
			sameAddr := e.EqVal(a.Addr, b.Addr)
			e.B.AssertOr(a.Exec.Not(), b.Exec.Not(), sameAddr.Not(), e.mLess(i, j))
		}
	}
}

// orderFree reports whether the order of pair (i,j) is a free variable
// (not already fixed to a constant).
func (e *Encoder) orderFree(i, j int) bool {
	m := e.mLess(i, j)
	return m != bitvec.True && m != bitvec.False
}

// assertFences emits the fence axioms: for an X-Y fence f and accesses
// x <p f <p y with matching kinds, if all three execute then x <M y.
func (e *Encoder) assertFences() {
	for _, f := range e.Fences {
		for i, a := range e.Accesses {
			if a.Thread != f.Thread || a.ProgIdx >= f.ProgIdx {
				continue
			}
			if !f.Kind.OrdersBefore(a.IsLoad) {
				continue
			}
			for j, b := range e.Accesses {
				if b.Thread != f.Thread || b.ProgIdx <= f.ProgIdx {
					continue
				}
				if !f.Kind.OrdersAfter(b.IsLoad) || !e.orderFree(i, j) {
					continue
				}
				e.B.AssertOr(a.Exec.Not(), f.Exec.Not(), b.Exec.Not(), e.mLess(i, j))
			}
		}
	}
}

// assertAtomicity keeps each atomic block contiguous in memory order:
// for accesses g, g' of one block and any access z outside it,
// g <M z iff g' <M z. Chaining consecutive members suffices.
func (e *Encoder) assertAtomicity() {
	// Blocks are visited in order of first access, not map order: the
	// first assertion mentioning an order variable allocates its SAT
	// variable, so the visiting order fixes the formula's numbering.
	groups := map[int][]int{}
	var keys []int
	for i, a := range e.Accesses {
		if a.Group >= 0 {
			if _, ok := groups[a.Group]; !ok {
				keys = append(keys, a.Group)
			}
			groups[a.Group] = append(groups[a.Group], i)
		}
	}
	for _, k := range keys {
		e.assertContiguous(groups[k], func(z *Access) bool { return true })
	}
}

// assertSeriality emits the seriality condition (paper §2.3.2): the
// accesses of one operation are contiguous with respect to accesses of
// other threads. (Operations of the same thread are already separated
// by program order.)
func (e *Encoder) assertSeriality() {
	// Operations in order of first access, as in assertAtomicity.
	ops := map[[2]int][]int{}
	var keys [][2]int
	for i, a := range e.Accesses {
		if a.OpID >= 0 && a.Thread != 0 {
			k := [2]int{a.Thread, a.OpID}
			if _, ok := ops[k]; !ok {
				keys = append(keys, k)
			}
			ops[k] = append(ops[k], i)
		}
	}
	for _, k := range keys {
		thread := k[0]
		e.assertContiguous(ops[k], func(z *Access) bool { return z.Thread != thread })
	}
}

// assertContiguous makes the given accesses adjacent in memory order
// relative to every access z (of a different group) accepted by
// include.
func (e *Encoder) assertContiguous(members []int, include func(*Access) bool) {
	if len(members) < 2 {
		return
	}
	inGroup := map[int]bool{}
	for _, m := range members {
		inGroup[m] = true
	}
	for z, az := range e.Accesses {
		if inGroup[z] || !include(az) {
			continue
		}
		for mi := 0; mi+1 < len(members); mi++ {
			g1, g2 := members[mi], members[mi+1]
			a := e.mLess(g1, z)
			b := e.mLess(g2, z)
			if a == b {
				continue // identified by the order reduction
			}
			// a <-> b
			e.B.AssertOr(a.Not(), b)
			e.B.AssertOr(a, b.Not())
		}
	}
}

// assertSweepUnits emits the per-model deltas of a sweep encoding.
//
// The base formula carries the weakest swept model's axioms, which
// every stronger model implies (a stronger model's memory orders are a
// subset of the weaker's, and its axiom set a superset). What a
// stronger model M adds over the weakest base W is exactly its larger
// unconditional program-order relation (KeepsProgramOrder): for every
// same-thread pair a <p b that M keeps ordered but the base left as a
// variable, emit the unit clause (¬sel_M ∨ a <M b). Solving under the
// assumptions sel_M ∧ ¬sel_M' for all M' ≠ M then yields precisely M's
// theory: the guarded units force M's program order, and the base's
// conditional fence/same-address clauses — emitted for W, the most
// general form in the family — are satisfied or subsumed once those
// orders are forced. M's conditional same-address requirements are a
// subset of W's emissions (OrdersSameAddrStore shrinks as models
// strengthen, and the pairs it drops are exactly the ones
// KeepsProgramOrder picked up), and the fence axioms do not branch on
// the model at all, so no guarded conditional clauses are needed.
//
// Store forwarding in the value axioms follows the base model. That is
// sound for a non-forwarding swept model (only SequentialConsistency
// qualifies) because its guarded units force every same-thread
// earlier-store/later-load pair into memory order, making the
// forwarding shortcut `before = True` coincide with the forced value
// of a <M b under that model's selector.
//
// Units are deduplicated per (merge-class pair, model): merged pairs
// share one variable, so one clause covers every member pair.
func (e *Encoder) assertSweepUnits() {
	if len(e.sweep) == 0 {
		return
	}
	e.selectors = make([]bitvec.Node, len(e.sweep))
	for i := range e.sweep {
		e.selectors[i] = e.B.Var()
	}
	type classPair struct{ ra, rb, model int }
	seen := map[classPair]bool{}
	n := len(e.Accesses)
	for mi, m := range e.sweep {
		if m == e.Model {
			continue // the base model's axioms are already unguarded
		}
		sel := e.selectors[mi]
		for i := 0; i < n; i++ {
			if e.aborted() {
				return
			}
			a := e.Accesses[i]
			if a.Thread == 0 {
				continue // init pairs are base constants already
			}
			for j := i + 1; j < n; j++ {
				b := e.Accesses[j]
				if b.Thread != a.Thread {
					continue
				}
				// Accesses are created in program order, so i < j means
				// a <p b within the thread.
				if !m.KeepsProgramOrder(a.IsLoad, b.IsLoad) {
					continue
				}
				node := e.mLess(i, j)
				if node == bitvec.True {
					continue // already forced under the base model
				}
				if node == bitvec.False {
					// The base rules only ever force program-order-earlier
					// accesses first within a thread, so a reversed
					// constant here would mean the base fixing is unsound
					// for the stronger model.
					panic("encode: sweep unit contradicts a base-model constant")
				}
				k := classPair{e.orderRep[i], e.orderRep[j], mi}
				if seen[k] {
					continue
				}
				seen[k] = true
				e.B.AssertOr(sel.Not(), node)
				e.SelectorUnits++
			}
		}
	}
}

// SelectorLits returns the assumption literals selecting model m on a
// sweep encoder: m's selector positive, every other selector negative.
// The negative literals matter — leaving another model's selector free
// would let the solver enable its guarded units and over-constrain the
// query. A single-model encoder has no selectors and returns nil: its
// formula is its one model's query unassumed. Panics when m was not in
// the sweep (a driver bug, not an input condition).
func (e *Encoder) SelectorLits(m memmodel.Model) []sat.Lit {
	if len(e.sweep) == 0 {
		return nil
	}
	lits := make([]sat.Lit, len(e.sweep))
	found := false
	for i, sm := range e.sweep {
		l := e.B.Lit(e.selectors[i])
		if sm == m {
			found = true
		} else {
			l = l.Not()
		}
		lits[i] = l
	}
	if !found {
		panic(fmt.Sprintf("encode: model %s is not in the sweep", m))
	}
	return lits
}

// SelectorSatVars returns the SAT variables of the sweep selectors
// (nil on single-model encoders, or before Encode). PreprocessCNF
// freezes them: the per-model assumptions name them.
func (e *Encoder) SelectorSatVars() []int {
	if len(e.selectors) == 0 {
		return nil
	}
	vars := make([]int, 0, len(e.selectors))
	for _, s := range e.selectors {
		vars = append(vars, e.B.Lit(s).Var())
	}
	return vars
}

// assertValueAxioms emits the Init/Flows constraints that determine
// load values (axioms 2 and 3 of §2.3.2, for the chosen model's
// visibility definition).
func (e *Encoder) assertValueAxioms() {
	undef := e.UndefVal()
	for li, l := range e.Accesses {
		if !l.IsLoad {
			continue
		}
		if e.aborted() {
			return
		}
		// visible(s, l) for every store that may alias.
		type cand struct {
			si      int
			visible bitvec.Node
		}
		var cands []cand
		for si, s := range e.Accesses {
			if s.IsLoad || si == li {
				continue
			}
			if !e.Info.MayAlias(l.AddrReg, s.AddrReg) {
				continue
			}
			sameAddr := e.EqVal(l.Addr, s.Addr)
			before := e.mLess(si, li)
			if e.forwards() && s.Thread == l.Thread && s.ProgIdx < l.ProgIdx {
				// Store forwarding: a program-order-earlier store of
				// the same thread is visible even if globally later
				// (store buffering, present in TSO, PSO, and Relaxed).
				before = bitvec.True
			}
			vis := e.B.AndAll(s.Exec, sameAddr, before)
			if vis == bitvec.False {
				continue
			}
			cands = append(cands, cand{si: si, visible: vis})
		}

		initV := e.B.Var()
		// Init_l -> no store is visible; Init_l -> v(l) = undefined.
		for _, c := range cands {
			e.B.AssertOr(initV.Not(), c.visible.Not())
		}
		e.B.AssertOr(initV.Not(), e.EqVal(l.Val, undef))

		// Flows_{s,l} -> s visible, maximal, and v(l) = v(s).
		flowNodes := make([]bitvec.Node, 0, len(cands))
		for ci, c := range cands {
			flow := e.B.Var()
			flowNodes = append(flowNodes, flow)
			e.B.AssertOr(flow.Not(), c.visible)
			e.B.AssertOr(flow.Not(), e.EqVal(l.Val, e.Accesses[c.si].Val))
			for cj, c2 := range cands {
				if ci == cj {
					continue
				}
				// No visible store strictly after s.
				e.B.AssertOr(flow.Not(), c2.visible.Not(), e.mLess(c2.si, c.si))
			}
		}
		// An executed load reads from initial memory or some store.
		clause := append([]bitvec.Node{l.Exec.Not(), initV}, flowNodes...)
		e.B.AssertOr(clause...)
	}
}

// forwards reports whether the model has a store buffer with local
// forwarding.
func (e *Encoder) forwards() bool { return e.Model.Forwards() }

// ErrorNode returns the disjunction of all runtime error conditions
// (assertion failures and undefined-value uses).
func (e *Encoder) ErrorNode() bitvec.Node {
	nodes := make([]bitvec.Node, len(e.Errors))
	for i, ec := range e.Errors {
		nodes[i] = ec.Cond
	}
	return e.B.OrAll(nodes...)
}

// AssertNoOverflow constrains every loop to stay within its unrolling
// bound (used for regular checking; the lazy-bound probe asserts the
// opposite in a fresh encoder).
func (e *Encoder) AssertNoOverflow() {
	for _, id := range e.overflowIDs() {
		e.B.Assert(e.Overflow[id].Not())
	}
}

// AssertSomeOverflow requires that at least one loop exceeds its
// bound: the paper's §3.3 probe as one solve, whose model flags only
// some of the loops that can overflow (ProbeOverflows finds them all).
func (e *Encoder) AssertSomeOverflow() {
	nodes := make([]bitvec.Node, 0, len(e.Overflow))
	for _, id := range e.overflowIDs() {
		nodes = append(nodes, e.Overflow[id])
	}
	e.B.AssertOr(nodes...)
}

// ProbeOverflows is the bound probe of paper §3.3, widened to find
// every loop that can exceed its unrolling bound in one encoding, not
// only the loops one model happens to flag. It requires that some loop
// overflows, solves, and records the loops whose guard holds; it then
// adds one clause "some loop not yet flagged overflows" and re-solves,
// until that is refuted or every loop is flagged. The probe encoding is
// never preprocessed, so each re-solve is incremental.
//
// The status is Unsat when no loop can overflow (ids is empty), Sat
// when ids lists, in ascending order, every loop that can, and Unknown
// when a solve stopped (stop predicate, deadline or budget) before the
// collection was complete. On Unknown ids is nil, never a partial set:
// growing only some of the overflowable loops and calling the bounds
// converged would be unsound.
func (e *Encoder) ProbeOverflows() ([]int, sat.Status) {
	var ids []int
	remaining := e.overflowIDs()
	guards := make([]bitvec.Node, 0, len(remaining))
	for len(remaining) > 0 {
		guards = guards[:0]
		for _, id := range remaining {
			guards = append(guards, e.Overflow[id])
		}
		e.B.AssertOr(guards...)
		st := e.S.Solve()
		if st == sat.Unsat {
			break
		}
		if st != sat.Sat {
			return nil, sat.Unknown
		}
		rest := remaining[:0]
		for _, id := range remaining {
			if e.B.Eval(e.Overflow[id]) {
				ids = append(ids, id)
			} else {
				rest = append(rest, id)
			}
		}
		if len(rest) == len(remaining) {
			// The clause just added holds in the model through a
			// positively encoded guard, so one of them must evaluate
			// true; anything else is an encoder bug.
			panic("encode: overflow probe satisfiable but no new loop flagged")
		}
		remaining = rest
	}
	if len(ids) == 0 {
		return nil, sat.Unsat
	}
	slices.Sort(ids)
	return ids, sat.Sat
}

// overflowIDs returns the loop ids of Overflow in ascending order.
// Every walk over the guards goes through it: asserting a guard
// allocates SAT variables for its cone, so walking the map in its
// random order would number the variables — and shape the search —
// differently from one check to the next.
func (e *Encoder) overflowIDs() []int {
	ids := make([]int, 0, len(e.Overflow))
	for id := range e.Overflow {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// MemOrderNode exposes the circuit node for "access i precedes access
// j in memory order" (the commit-point method builds on it).
func (e *Encoder) MemOrderNode(i, j int) bitvec.Node { return e.mLess(i, j) }

// ConstAddrLoc returns the location an access statically addresses,
// or "" when the address is not a compile-time constant pointer.
func (e *Encoder) ConstAddrLoc(a *Access) lsl.Loc {
	if a.Addr.K1 != bitvec.True || a.Addr.K0 != bitvec.False {
		return ""
	}
	var comps []int64
	for _, bv := range a.Addr.Comps {
		v, ok := bv.IsConst()
		if !ok {
			return ""
		}
		if v == 0 {
			break
		}
		comps = append(comps, v-1)
	}
	if len(comps) == 0 {
		return ""
	}
	return lsl.LocOf(lsl.PtrFromComponents(comps))
}

// MemOrderBefore reports, under the solver's current model, whether
// access i precedes access j in the memory order (trace decoding).
func (e *Encoder) MemOrderBefore(i, j int) bool {
	if i == j {
		return false
	}
	return e.B.Eval(e.mLess(i, j))
}

// OverflowingLoops returns the loop ids whose overflow guard holds in
// the current model.
func (e *Encoder) OverflowingLoops() []int {
	var out []int
	for _, id := range e.overflowIDs() {
		if e.B.Eval(e.Overflow[id]) {
			out = append(out, id)
		}
	}
	return out
}
