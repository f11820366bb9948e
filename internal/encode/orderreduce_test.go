package encode

import (
	"fmt"
	"math/rand"
	"testing"

	"checkfence/internal/lsl"
	"checkfence/internal/memmodel"
	"checkfence/internal/ranges"
	"checkfence/internal/sat"
)

// encodeThreadsCfg is encodeThreads with an explicit Config, so tests
// can pit the reduced order encoding against the unreduced one.
func encodeThreadsCfg(t *testing.T, model memmodel.Model, cfg Config, bodies ...[]lsl.Stmt) *Encoder {
	t.Helper()
	info := ranges.Analyze(bodies)
	e := NewWithConfig(model, info, cfg)
	threads := make([]Thread, len(bodies))
	for i, b := range bodies {
		threads[i] = Thread{Name: "t", Segments: [][]lsl.Stmt{b}, OpIDs: []int{i}}
	}
	if err := e.Encode(threads); err != nil {
		t.Fatal(err)
	}
	e.B.Assert(e.ErrorNode().Not())
	return e
}

// TestOrderReduceDifferential re-runs the classic litmus shapes under
// every memory model with the order reduction on and off; the verdicts
// must be identical, and the reduced encoding must actually reduce
// something on at least one model.
func TestOrderReduceDifferential(t *testing.T) {
	mkT1 := func(fenced bool) []lsl.Stmt {
		t1 := []lsl.Stmt{
			mkConst("a.xa", lsl.Ptr(0)), mkConst("a.ya", lsl.Ptr(1)),
			mkConst("a.one", lsl.Int(1)),
			mkStore("a.xa", "a.one"),
		}
		if fenced {
			t1 = append(t1, mkFence(lsl.FenceStoreStore))
		}
		return append(t1, mkStore("a.ya", "a.one"))
	}
	t2 := []lsl.Stmt{
		mkConst("b.xa", lsl.Ptr(0)), mkConst("b.ya", lsl.Ptr(1)),
		mkLoad("b.r1", "b.ya"),
		mkLoad("b.r2", "b.xa"),
	}
	models := []memmodel.Model{
		memmodel.SequentialConsistency, memmodel.TSO, memmodel.PSO,
		memmodel.Relaxed, memmodel.Serial,
	}
	reduced := 0
	for _, model := range models {
		for _, fenced := range []bool{false, true} {
			mp := map[[2]interface{}]lsl.Value{
				{2, "b.r1"}: lsl.Int(1),
				{2, "b.r2"}: lsl.Int(0),
			}
			on := encodeThreadsCfg(t, model, Config{OrderReduce: true}, initXY(), mkT1(fenced), t2)
			off := encodeThreadsCfg(t, model, Config{}, initXY(), mkT1(fenced), t2)
			stOn := solveWith(t, on, mp)
			stOff := solveWith(t, off, mp)
			if stOn != stOff {
				t.Errorf("%v fenced=%v: reduced=%v unreduced=%v", model, fenced, stOn, stOff)
			}
			if off.OrderVarsFixed+off.OrderVarsMerged != 0 {
				t.Errorf("%v: unreduced encoder reports reduction counters", model)
			}
			reduced += on.OrderVarsFixed + on.OrderVarsMerged
		}
	}
	if reduced == 0 {
		t.Error("reduction never fixed or merged a single order variable across all models")
	}
}

// TestOrderReduceFenceFixing: a fence matching the pair each model
// actually relaxes (store→load under TSO, store→store under
// PSO/Relaxed) between two always-executed same-thread accesses
// forces their order constant, so the reduced encoding must report
// fixed variables.
func TestOrderReduceFenceFixing(t *testing.T) {
	prefix := []lsl.Stmt{
		mkConst("a.xa", lsl.Ptr(0)), mkConst("a.ya", lsl.Ptr(1)),
		mkConst("a.one", lsl.Int(1)),
	}
	storeLoad := append(append([]lsl.Stmt{}, prefix...),
		mkStore("a.xa", "a.one"),
		mkFence(lsl.FenceStoreLoad),
		mkLoad("a.r1", "a.ya"))
	storeStore := append(append([]lsl.Stmt{}, prefix...),
		mkStore("a.xa", "a.one"),
		mkFence(lsl.FenceStoreStore),
		mkStore("a.ya", "a.one"))
	for _, tc := range []struct {
		model memmodel.Model
		body  []lsl.Stmt
	}{
		{memmodel.TSO, storeLoad},
		{memmodel.PSO, storeStore},
		{memmodel.Relaxed, storeStore},
	} {
		e := encodeThreadsCfg(t, tc.model, Config{OrderReduce: true}, initXY(), tc.body)
		if e.OrderVarsFixed == 0 {
			t.Errorf("%v: fence fixed no order variable", tc.model)
		}
		if st := e.S.Solve(); st != sat.Sat {
			t.Errorf("%v: fenced single-thread program must be satisfiable, got %v", tc.model, st)
		}
	}
}

// TestOrderReduceSerialMerging: under Serial, all operations of one
// invocation are interchangeable for ordering purposes, so the
// reduction must merge their order variables.
func TestOrderReduceSerialMerging(t *testing.T) {
	t1 := []lsl.Stmt{
		mkConst("a.xa", lsl.Ptr(0)), mkConst("a.one", lsl.Int(1)),
		mkStore("a.xa", "a.one"),
		mkLoad("a.r1", "a.xa"),
	}
	t2 := []lsl.Stmt{
		mkConst("b.xa", lsl.Ptr(0)), mkConst("b.two", lsl.Int(2)),
		mkStore("b.xa", "b.two"),
		mkLoad("b.r2", "b.xa"),
	}
	e := encodeThreadsCfg(t, memmodel.Serial, Config{OrderReduce: true}, initXY(), t1, t2)
	if e.OrderVarsMerged == 0 {
		t.Error("Serial: no order variables merged for same-invocation operations")
	}
	if st := e.S.Solve(); st != sat.Sat {
		t.Errorf("Serial merge encoding unsatisfiable: %v", st)
	}
}

// TestOrderReduceRandomDifferential cross-checks reduced vs unreduced
// encodings on random straight-line programs under every model: same
// verdict, and when satisfiable, the reduced model's register values
// are achievable in the unreduced encoding too (checked by re-solving
// the unreduced encoding under the reduced model's observation).
func TestOrderReduceRandomDifferential(t *testing.T) {
	models := []memmodel.Model{
		memmodel.SequentialConsistency, memmodel.TSO, memmodel.PSO,
		memmodel.Relaxed, memmodel.Serial,
	}
	fences := []lsl.FenceKind{
		lsl.FenceLoadLoad, lsl.FenceLoadStore,
		lsl.FenceStoreLoad, lsl.FenceStoreStore,
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		genThread := func(p string) []lsl.Stmt {
			body := []lsl.Stmt{
				mkConst(p+".xa", lsl.Ptr(0)), mkConst(p+".ya", lsl.Ptr(1)),
				mkConst(p+".one", lsl.Int(1)), mkConst(p+".two", lsl.Int(2)),
			}
			n := 3 + rng.Intn(3)
			for i := 0; i < n; i++ {
				addr := p + ".xa"
				if rng.Intn(2) == 0 {
					addr = p + ".ya"
				}
				switch rng.Intn(3) {
				case 0:
					src := p + ".one"
					if rng.Intn(2) == 0 {
						src = p + ".two"
					}
					body = append(body, mkStore(addr, src))
				case 1:
					body = append(body, mkLoad(fmt.Sprintf("%s.r%d", p, i), addr))
				default:
					body = append(body, mkFence(fences[rng.Intn(len(fences))]))
				}
			}
			return body
		}
		tA, tB := genThread("a"), genThread("b")
		model := models[rng.Intn(len(models))]

		on := encodeThreadsCfg(t, model, Config{OrderReduce: true}, initXY(), tA, tB)
		off := encodeThreadsCfg(t, model, Config{}, initXY(), tA, tB)
		stOn, stOff := on.S.Solve(), off.S.Solve()
		if stOn != stOff {
			t.Fatalf("seed %d %v: reduced=%v unreduced=%v", seed, model, stOn, stOff)
		}
		if stOn != sat.Sat {
			continue
		}
		// Pin every loaded register to the reduced model's value and
		// demand the unreduced encoding admits the same observation.
		for ti, env := range on.Envs {
			for reg, sv := range env {
				v := on.EvalVal(sv)
				osv, ok := off.Envs[ti][reg]
				if !ok {
					t.Fatalf("seed %d: unreduced encoder lacks register %v", seed, reg)
				}
				off.B.Assert(off.EqVal(osv, off.ConstVal(v)))
			}
		}
		if st := off.S.Solve(); st != sat.Sat {
			t.Fatalf("seed %d %v: reduced observation rejected by unreduced encoding: %v",
				seed, model, st)
		}
	}
}

// TestCloseOrder: the closure of the fixed order constants holds every
// pair a chain of constants implies, and a cycle among them panics.
func TestCloseOrder(t *testing.T) {
	got := closeOrder(5, [][2]int{{3, 1}, {0, 3}, {1, 4}})
	want := [][2]int{{0, 1}, {0, 3}, {0, 4}, {1, 4}, {3, 1}, {3, 4}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("closeOrder = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("a cycle among the constants did not panic")
		}
	}()
	closeOrder(4, [][2]int{{0, 1}, {1, 2}, {2, 0}})
}
