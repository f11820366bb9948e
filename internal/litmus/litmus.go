// Command litmus runs classic memory-model litmus tests against the
// axiomatic models, including the IRIW execution of the paper's
// Fig. 2 (possible on PowerPC/IA-32/IA-64, but not on Relaxed, which
// globally orders stores).
//
//	litmus            # run all litmus tests on all models
//	litmus iriw sb    # run selected tests
package litmus

import (
	"fmt"
	"sort"

	"checkfence/internal/encode"
	"checkfence/internal/lsl"
	"checkfence/internal/memmodel"
	"checkfence/internal/ranges"
	"checkfence/internal/rf"
	"checkfence/internal/sat"
	"checkfence/internal/spec"
)

// litmusTest is a hand-built multi-threaded program plus a forbidden/
// allowed outcome over final register values.
type Test struct {
	Name    string
	Desc    string
	threads [][]lsl.Stmt
	outcome map[int]map[lsl.Reg]lsl.Value // thread -> reg -> value
	// AllowedOn lists models where the outcome is observable.
	AllowedOn map[memmodel.Model]bool
}

func c(dst string, v lsl.Value) lsl.Stmt { return &lsl.ConstStmt{Dst: lsl.Reg(dst), Val: v} }
func st(addr, src string) lsl.Stmt       { return &lsl.StoreStmt{Addr: lsl.Reg(addr), Src: lsl.Reg(src)} }
func ld(dst, addr string) lsl.Stmt       { return &lsl.LoadStmt{Dst: lsl.Reg(dst), Addr: lsl.Reg(addr)} }
func fence(k lsl.FenceKind) lsl.Stmt     { return &lsl.FenceStmt{Kind: k} }

func initLitmus() []lsl.Stmt {
	return []lsl.Stmt{
		c("i.x", lsl.Ptr(0)), c("i.y", lsl.Ptr(1)), c("i.z", lsl.Int(0)),
		st("i.x", "i.z"), st("i.y", "i.z"),
	}
}

func Tests() []Test {
	return []Test{
		{
			Name: "sb",
			Desc: "store buffering: both threads read 0 past the other's store",
			threads: [][]lsl.Stmt{
				{c("a.x", lsl.Ptr(0)), c("a.y", lsl.Ptr(1)), c("a.1", lsl.Int(1)),
					st("a.x", "a.1"), ld("a.r", "a.y")},
				{c("b.x", lsl.Ptr(0)), c("b.y", lsl.Ptr(1)), c("b.1", lsl.Int(1)),
					st("b.y", "b.1"), ld("b.r", "b.x")},
			},
			outcome: map[int]map[lsl.Reg]lsl.Value{
				1: {"a.r": lsl.Int(0)}, 2: {"b.r": lsl.Int(0)},
			},
			AllowedOn: map[memmodel.Model]bool{
				memmodel.TSO: true, memmodel.PSO: true, memmodel.Relaxed: true,
			},
		},
		{
			Name: "sb+fences",
			Desc: "store buffering with store-load fences",
			threads: [][]lsl.Stmt{
				{c("a.x", lsl.Ptr(0)), c("a.y", lsl.Ptr(1)), c("a.1", lsl.Int(1)),
					st("a.x", "a.1"), fence(lsl.FenceStoreLoad), ld("a.r", "a.y")},
				{c("b.x", lsl.Ptr(0)), c("b.y", lsl.Ptr(1)), c("b.1", lsl.Int(1)),
					st("b.y", "b.1"), fence(lsl.FenceStoreLoad), ld("b.r", "b.x")},
			},
			outcome: map[int]map[lsl.Reg]lsl.Value{
				1: {"a.r": lsl.Int(0)}, 2: {"b.r": lsl.Int(0)},
			},
			AllowedOn: map[memmodel.Model]bool{},
		},
		{
			Name: "mp",
			Desc: "message passing without fences",
			threads: [][]lsl.Stmt{
				{c("a.x", lsl.Ptr(0)), c("a.y", lsl.Ptr(1)), c("a.1", lsl.Int(1)),
					st("a.x", "a.1"), st("a.y", "a.1")},
				{c("b.x", lsl.Ptr(0)), c("b.y", lsl.Ptr(1)),
					ld("b.r1", "b.y"), ld("b.r2", "b.x")},
			},
			outcome: map[int]map[lsl.Reg]lsl.Value{
				2: {"b.r1": lsl.Int(1), "b.r2": lsl.Int(0)},
			},
			AllowedOn: map[memmodel.Model]bool{
				memmodel.PSO: true, memmodel.Relaxed: true,
			},
		},
		{
			Name: "mp+fences",
			Desc: "message passing with store-store/load-load fences",
			threads: [][]lsl.Stmt{
				{c("a.x", lsl.Ptr(0)), c("a.y", lsl.Ptr(1)), c("a.1", lsl.Int(1)),
					st("a.x", "a.1"), fence(lsl.FenceStoreStore), st("a.y", "a.1")},
				{c("b.x", lsl.Ptr(0)), c("b.y", lsl.Ptr(1)),
					ld("b.r1", "b.y"), fence(lsl.FenceLoadLoad), ld("b.r2", "b.x")},
			},
			outcome: map[int]map[lsl.Reg]lsl.Value{
				2: {"b.r1": lsl.Int(1), "b.r2": lsl.Int(0)},
			},
			AllowedOn: map[memmodel.Model]bool{},
		},
		{
			Name: "iriw",
			Desc: "paper Fig. 2: independent reads of independent writes (with load-load fences)",
			threads: [][]lsl.Stmt{
				{c("a.x", lsl.Ptr(0)), c("a.1", lsl.Int(1)), st("a.x", "a.1")},
				{c("b.y", lsl.Ptr(1)), c("b.1", lsl.Int(1)), st("b.y", "b.1")},
				{c("c.x", lsl.Ptr(0)), c("c.y", lsl.Ptr(1)),
					ld("c.r1", "c.x"), fence(lsl.FenceLoadLoad), ld("c.r2", "c.y")},
				{c("d.x", lsl.Ptr(0)), c("d.y", lsl.Ptr(1)),
					ld("d.r1", "d.y"), fence(lsl.FenceLoadLoad), ld("d.r2", "d.x")},
			},
			outcome: map[int]map[lsl.Reg]lsl.Value{
				3: {"c.r1": lsl.Int(1), "c.r2": lsl.Int(0)},
				4: {"d.r1": lsl.Int(1), "d.r2": lsl.Int(0)},
			},
			// Relaxed globally orders stores, so the outcome is
			// forbidden on every supported model (the point of
			// paper §2.3.3).
			AllowedOn: map[memmodel.Model]bool{},
		},
		{
			Name: "lb",
			Desc: "load buffering: loads reordered after program-later stores",
			threads: [][]lsl.Stmt{
				{c("a.x", lsl.Ptr(0)), c("a.y", lsl.Ptr(1)), c("a.1", lsl.Int(1)),
					ld("a.r", "a.x"), st("a.y", "a.1")},
				{c("b.x", lsl.Ptr(0)), c("b.y", lsl.Ptr(1)), c("b.1", lsl.Int(1)),
					ld("b.r", "b.y"), st("b.x", "b.1")},
			},
			outcome: map[int]map[lsl.Reg]lsl.Value{
				1: {"a.r": lsl.Int(1)}, 2: {"b.r": lsl.Int(1)},
			},
			// TSO and PSO preserve load→store order; only Relaxed
			// (which also drops dependency order, §2.3 relaxation 5)
			// admits the outcome.
			AllowedOn: map[memmodel.Model]bool{memmodel.Relaxed: true},
		},
		{
			Name: "lb+fences",
			Desc: "load buffering with load-store fences",
			threads: [][]lsl.Stmt{
				{c("a.x", lsl.Ptr(0)), c("a.y", lsl.Ptr(1)), c("a.1", lsl.Int(1)),
					ld("a.r", "a.x"), fence(lsl.FenceLoadStore), st("a.y", "a.1")},
				{c("b.x", lsl.Ptr(0)), c("b.y", lsl.Ptr(1)), c("b.1", lsl.Int(1)),
					ld("b.r", "b.y"), fence(lsl.FenceLoadStore), st("b.x", "b.1")},
			},
			outcome: map[int]map[lsl.Reg]lsl.Value{
				1: {"a.r": lsl.Int(1)}, 2: {"b.r": lsl.Int(1)},
			},
			AllowedOn: map[memmodel.Model]bool{},
		},
		{
			Name: "coRR",
			Desc: "same-address load-load reordering (relaxation 4)",
			threads: [][]lsl.Stmt{
				{c("a.x", lsl.Ptr(0)), c("a.1", lsl.Int(1)), st("a.x", "a.1")},
				{c("b.x", lsl.Ptr(0)), ld("b.r1", "b.x"), ld("b.r2", "b.x")},
			},
			outcome: map[int]map[lsl.Reg]lsl.Value{
				2: {"b.r1": lsl.Int(1), "b.r2": lsl.Int(0)},
			},
			AllowedOn: map[memmodel.Model]bool{memmodel.Relaxed: true},
		},
	}
}

// Run checks whether the outcome is observable on the model.
// Observable reports whether the outcome can occur on the model.
func (t Test) Observable(model memmodel.Model) (bool, error) {
	bodies := [][]lsl.Stmt{initLitmus()}
	bodies = append(bodies, t.threads...)
	info := ranges.Analyze(bodies)
	// The formula is solved as encoded, so it loads without the bulk
	// intake of one armed for preprocessing (see
	// encode.Config.Preprocess).
	cfg := encode.DefaultConfig()
	cfg.Preprocess = false
	e := encode.NewWithConfig(model, info, cfg)
	threads := make([]encode.Thread, len(bodies))
	for i, b := range bodies {
		threads[i] = encode.Thread{Name: fmt.Sprintf("t%d", i),
			Segments: [][]lsl.Stmt{b}, OpIDs: []int{0}}
	}
	if err := e.Encode(threads); err != nil {
		return false, err
	}
	e.B.Assert(e.ErrorNode().Not())
	for ti, regs := range t.outcome {
		for reg, want := range regs {
			sv, ok := e.Envs[ti][reg]
			if !ok {
				return false, fmt.Errorf("no register %s in thread %d", reg, ti)
			}
			e.B.Assert(e.EqVal(sv, e.ConstVal(want)))
		}
	}
	return e.S.Solve() == sat.Sat, nil
}

// ObservableRF answers the same question through the polynomial
// reads-from oracle: it enumerates the model's complete observation
// set over the outcome registers and tests membership. The test suite
// asserts agreement with the SAT answer on every model.
func (t Test) ObservableRF(model memmodel.Model) (bool, error) {
	bodies := [][]lsl.Stmt{initLitmus()}
	bodies = append(bodies, t.threads...)
	threads := make([]encode.Thread, len(bodies))
	for i, b := range bodies {
		threads[i] = encode.Thread{Name: fmt.Sprintf("t%d", i),
			Segments: [][]lsl.Stmt{b}, OpIDs: []int{0}}
	}
	p, err := rf.Scan(threads)
	if err != nil {
		return false, err
	}
	var entries []spec.Entry
	var want spec.Observation
	for ti := 1; ti < len(bodies); ti++ {
		regs, ok := t.outcome[ti]
		if !ok {
			continue
		}
		// Deterministic entry order: registers sorted within a thread.
		keys := make([]string, 0, len(regs))
		for reg := range regs {
			keys = append(keys, string(reg))
		}
		sort.Strings(keys)
		for _, k := range keys {
			entries = append(entries, spec.Entry{Label: k, Thread: ti, Reg: lsl.Reg(k)})
			want = append(want, regs[lsl.Reg(k)])
		}
	}
	set, _, err := p.Observations(model, entries, rf.Budget{})
	if err != nil {
		return false, err
	}
	return set.Has(want), nil
}
