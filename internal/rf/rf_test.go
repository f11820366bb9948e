package rf

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"checkfence/internal/encode"
	"checkfence/internal/lsl"
	"checkfence/internal/memmodel"
	"checkfence/internal/spec"
)

func c(dst string, v lsl.Value) lsl.Stmt { return &lsl.ConstStmt{Dst: lsl.Reg(dst), Val: v} }
func st(addr, src string) lsl.Stmt       { return &lsl.StoreStmt{Addr: lsl.Reg(addr), Src: lsl.Reg(src)} }
func ld(dst, addr string) lsl.Stmt       { return &lsl.LoadStmt{Dst: lsl.Reg(dst), Addr: lsl.Reg(addr)} }

func mkThreads(bodies ...[]lsl.Stmt) []encode.Thread {
	out := make([]encode.Thread, len(bodies))
	for i, b := range bodies {
		out[i] = encode.Thread{Name: fmt.Sprintf("t%d", i), Segments: [][]lsl.Stmt{b}, OpIDs: []int{0}}
	}
	return out
}

func TestScanRejects(t *testing.T) {
	cases := map[string][]lsl.Stmt{
		"arithmetic": {c("a", lsl.Int(1)), c("b", lsl.Int(2)),
			&lsl.OpStmt{Dst: "s", Op: lsl.OpAdd, Args: []lsl.Reg{"a", "b"}}},
		"loaded-address": {c("x", lsl.Ptr(0)), ld("p", "x"), ld("v", "p")},
		"loaded-store-value": {c("x", lsl.Ptr(0)), c("y", lsl.Ptr(1)),
			ld("v", "x"), st("y", "v")},
		"havoc":  {&lsl.HavocStmt{Dst: "h", Bits: 1}},
		"assert": {c("one", lsl.Int(1)), &lsl.AssertStmt{Cond: "one"}},
	}
	for name, body := range cases {
		if _, err := Scan(mkThreads(nil, body)); !errors.Is(err, ErrNotApplicable) {
			t.Errorf("%s: Scan error = %v, want ErrNotApplicable", name, err)
		}
	}
	// The fragment itself is accepted.
	ok := []lsl.Stmt{c("x", lsl.Ptr(0)), c("one", lsl.Int(1)), st("x", "one"),
		&lsl.OpStmt{Dst: "cp", Op: lsl.OpIdent, Args: []lsl.Reg{"one"}}, ld("r", "x"),
		&lsl.FenceStmt{Kind: lsl.FenceStoreLoad}}
	p, err := Scan(mkThreads(nil, ok))
	if err != nil {
		t.Fatalf("fragment rejected: %v", err)
	}
	if len(p.Events) != 2 || len(p.Fences) != 1 || len(p.Loads) != 1 {
		t.Fatalf("scan shape: events=%d fences=%d loads=%d", len(p.Events), len(p.Fences), len(p.Loads))
	}
	if srcs := len(p.stores[p.Events[p.Loads[0]].Loc]); srcs != 1 {
		t.Fatalf("scan shape: load has %d same-address stores, want 1", srcs)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	// Four same-address stores and loads give 5^4 candidates; a 10-step
	// budget must trip.
	body1 := []lsl.Stmt{c("x", lsl.Ptr(0))}
	body2 := []lsl.Stmt{c("x", lsl.Ptr(0))}
	for i := 0; i < 4; i++ {
		body1 = append(body1, c(fmt.Sprintf("v%d", i), lsl.Int(int64(i))), st("x", fmt.Sprintf("v%d", i)))
		body2 = append(body2, ld(fmt.Sprintf("r%d", i), "x"))
	}
	p, err := Scan(mkThreads(nil, body1, body2))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = p.Observations(memmodel.SequentialConsistency, nil, Budget{MaxSteps: 10})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("Observations error = %v, want ErrBudget", err)
	}
}

// TestAtomicContraction checks the class-contraction path: message
// passing is observable on Relaxed, but wrapping each side in an
// atomic block restores the forbidden verdict.
func TestAtomicContraction(t *testing.T) {
	mp := func(atomic bool) []encode.Thread {
		w := []lsl.Stmt{st("x", "one"), st("y", "one")}
		r := []lsl.Stmt{ld("r1", "y"), ld("r2", "x")}
		if atomic {
			w = []lsl.Stmt{&lsl.AtomicStmt{Body: w}}
			r = []lsl.Stmt{&lsl.AtomicStmt{Body: r}}
		}
		pre := func(body []lsl.Stmt) []lsl.Stmt {
			return append([]lsl.Stmt{c("x", lsl.Ptr(0)), c("y", lsl.Ptr(1)), c("one", lsl.Int(1))}, body...)
		}
		init := []lsl.Stmt{c("x", lsl.Ptr(0)), c("y", lsl.Ptr(1)), c("z", lsl.Int(0)),
			st("x", "z"), st("y", "z")}
		return mkThreads(init, pre(w), pre(r))
	}
	entries := []spec.Entry{{Label: "r1", Thread: 2, Reg: "r1"}, {Label: "r2", Thread: 2, Reg: "r2"}}
	want := spec.Observation{lsl.Int(1), lsl.Int(0)}
	for _, tc := range []struct {
		atomic bool
		want   bool
	}{{false, true}, {true, false}} {
		p, err := Scan(mp(tc.atomic))
		if err != nil {
			t.Fatal(err)
		}
		set, _, err := p.Observations(memmodel.Relaxed, entries, Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if got := set.Has(want); got != tc.want {
			t.Errorf("mp atomic=%v on relaxed: observable=%v, want %v", tc.atomic, got, tc.want)
		}
	}
}

// miniEvent is one access of the brute-force oracle's program view.
type miniEvent struct {
	isLoad bool
	addr   int64
	val    int64 // stores
	obs    int   // loads: observation slot
}

// oracleSet enumerates every interleaving of the threads' events —
// instruction-granular for SequentialConsistency, whole-thread-atomic
// for Serial — over a concrete memory, which is exactly those models'
// semantics. Shares nothing with the engine.
func oracleSet(threads [][]miniEvent, nObs int, wholeThread bool) *spec.Set {
	set := spec.NewSet()
	pos := make([]int, len(threads))
	mem := map[int64]lsl.Value{}
	obs := make(spec.Observation, nObs)
	for i := range obs {
		obs[i] = lsl.Undef()
	}
	var step func()
	run := func(t int, n int, cont func()) {
		saveMem := map[int64]lsl.Value{}
		for k, v := range mem {
			saveMem[k] = v
		}
		saveObs := append(spec.Observation(nil), obs...)
		savePos := pos[t]
		for i := 0; i < n; i++ {
			ev := threads[t][pos[t]]
			if ev.isLoad {
				v, ok := mem[ev.addr]
				if !ok {
					v = lsl.Undef()
				}
				obs[ev.obs] = v
			} else {
				mem[ev.addr] = lsl.Int(ev.val)
			}
			pos[t]++
		}
		cont()
		pos[t] = savePos
		mem = saveMem
		copy(obs, saveObs)
	}
	step = func() {
		done := true
		for t := range threads {
			if pos[t] < len(threads[t]) {
				done = false
				n := 1
				if wholeThread {
					if pos[t] != 0 {
						continue // whole threads run from the start only
					}
					n = len(threads[t])
				}
				run(t, n, step)
			}
		}
		if done {
			set.Add(append(spec.Observation(nil), obs...))
		}
	}
	step()
	return set
}

// TestOracleDifferential pits the engine's SequentialConsistency and
// Serial enumerations against the brute-force interleaving oracle on
// random straight-line programs.
func TestOracleDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 200; iter++ {
		nThreads := 1 + rng.Intn(3)
		var minis [][]miniEvent
		var bodies [][]lsl.Stmt
		var entries []spec.Entry
		nextVal := int64(1)
		bodies = append(bodies, nil) // empty init pseudo-thread
		for ti := 1; ti <= nThreads; ti++ {
			body := []lsl.Stmt{c("x", lsl.Ptr(0)), c("y", lsl.Ptr(1))}
			var mini []miniEvent
			addrReg := [2]string{"x", "y"}
			nOps := 1 + rng.Intn(4)
			for oi := 0; oi < nOps; oi++ {
				addr := int64(rng.Intn(2))
				if rng.Intn(2) == 0 {
					vreg := fmt.Sprintf("v%d", oi)
					body = append(body, c(vreg, lsl.Int(nextVal)), st(addrReg[addr], vreg))
					mini = append(mini, miniEvent{addr: addr, val: nextVal})
					nextVal++
				} else {
					dst := fmt.Sprintf("r%d", oi)
					body = append(body, ld(dst, addrReg[addr]))
					mini = append(mini, miniEvent{isLoad: true, addr: addr, obs: len(entries)})
					entries = append(entries, spec.Entry{Label: dst, Thread: ti, Reg: lsl.Reg(dst)})
				}
			}
			bodies = append(bodies, body)
			minis = append(minis, mini)
		}
		p, err := Scan(mkThreads(bodies...))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			model memmodel.Model
			whole bool
		}{{memmodel.SequentialConsistency, false}, {memmodel.Serial, true}} {
			got, _, err := p.Observations(tc.model, entries, Budget{})
			if err != nil {
				t.Fatalf("iter %d %s: %v", iter, tc.model, err)
			}
			want := oracleSet(minis, len(entries), tc.whole)
			if !got.Equal(want) {
				t.Fatalf("iter %d: %s set diverges from oracle\nrf:     %v\noracle: %v",
					iter, tc.model, got.All(), want.All())
			}
		}
	}
}
