package main

import (
	"encoding/json"
	"math/rand"

	"checkfence/internal/daemon"
	"checkfence/internal/harness"
	"checkfence/internal/job"
)

// Workload inputs. Each table lists its rows cheapest first, so the
// tiny variant the tests run (the first few rows) stays fast; the seed
// only permutes the order in which a pass visits them.

// fig10Rows are the quick Fig. 10 rows on Relaxed, less snark/Da,
// which has no independent expected verdict (see expected.go).
var fig10Rows = relaxed([][2]string{
	{"ms2", "T0"}, {"ms2", "Tpc2"}, {"ms2", "T1"}, {"ms2", "Ti2"},
	{"harris", "Sac"}, {"msn", "T0"}, {"lazylist", "Sac"}, {"snark", "D0"},
	{"msn", "Tpc2"}, {"lazylist", "Sar"}, {"harris", "Saa"},
	{"msn", "Ti2"}, {"lazylist", "Saa"},
})

// fig10Reps repeats the short fig10 rows within a pass, so that each
// row's median rests on several samples: a host hiccup of a second can
// move a 5 ms check's only sample by half. The repetition counts are
// fixed, so a pass is the same work on every commit.
var fig10Reps = map[inputKey]int{
	{"ms2", "T0", "relaxed"}: 8, {"ms2", "Tpc2", "relaxed"}: 4, {"ms2", "T1", "relaxed"}: 4,
	{"ms2", "Ti2", "relaxed"}: 4, {"harris", "Sac", "relaxed"}: 4, {"msn", "T0", "relaxed"}: 4,
	{"lazylist", "Sac", "relaxed"}: 6,
}

// fenceBugRows are FAIL rows: unfenced variants on their small tests,
// snark as published, and the lazylist initialization bug.
var fenceBugRows = append(relaxed([][2]string{
	{"ms2-nofence", "T0"}, {"msn-nofence", "T0"}, {"harris-nofence", "Sac"},
	{"lazylist-bug", "Sar"}, {"lazylist-bug", "Sac"}, {"lazylist-nofence", "Sac"},
	{"snark-nofence", "D0"}, {"snark", "D0"},
}), inputKey{"msn-nofence", "T0", "pso"})

// sweepPairs are checked on every model of allModels. A pass submits
// them most expensive first, so the two workers' finishing time does
// not depend on the seed, which only permutes the models of each pair.
var sweepPairs = [][2]string{
	{"ms2", "T0"}, {"msn-nofence", "T0"}, {"harris", "Sac"}, {"lazylist-bug", "Sac"},
	{"msn", "T0"}, {"lazylist", "Sac"}, {"ms2", "Tpc2"}, {"snark-nofence", "D0"},
	{"snark", "D0"}, {"msn", "Tpc2"}, {"lazylist", "Sar"}, {"harris", "Saa"},
	{"msn", "Ti2"},
}

func relaxed(pairs [][2]string) []inputKey {
	out := make([]inputKey, len(pairs))
	for i, p := range pairs {
		out[i] = inputKey{p[0], p[1], "relaxed"}
	}
	return out
}

func sweepRows() []inputKey {
	var out []inputKey
	for _, p := range sweepPairs {
		for _, m := range allModels {
			out = append(out, inputKey{p[0], p[1], m})
		}
	}
	return out
}

// litmusImplName names the litmus-shaped datatype: each operation is
// one access to x or y. It borrows the deque mnemonics so the daemon's
// test parser accepts it: al/ar write x/y, rl/rr read x/y.
const litmusImplName = "litmusdt"

var litmusProgram = job.Program{
	Name: litmusImplName, Kind: "deque", InitFunc: "init_lit", Object: "x",
	Source: `
int x;
int y;

void init_lit(int *s) { x = 0; y = 0; }
void wx(int *s) { x = 1; }
void wy(int *s) { y = 1; }
int rx(int *s) { return x; }
int ry(int *s) { return y; }
`,
	Ops: []job.Op{
		{Mnemonic: "al", Func: "wx"},
		{Mnemonic: "ar", Func: "wy"},
		{Mnemonic: "rl", Func: "rx", HasRet: true},
		{Mnemonic: "rr", Func: "ry", HasRet: true},
	},
}

func litmusImpl() *harness.Impl {
	ops := make([]harness.OpSig, len(litmusProgram.Ops))
	for i, op := range litmusProgram.Ops {
		ops[i] = harness.OpSig{Mnemonic: op.Mnemonic, Func: op.Func, HasRet: op.HasRet}
	}
	p := litmusProgram
	return &harness.Impl{Name: p.Name, Kind: p.Kind, Source: p.Source,
		InitFunc: p.InitFunc, Obj: p.Object, Ops: ops}
}

// requestKind is one distinct service request: a 4-model batch entry
// for a registry pair or an inline litmus shape.
type requestKind struct {
	name     string // label; also the latency sample key
	impl     string // expected-table implementation
	test     string // expected-table test name
	notation string // litmus only: the test as sent
	body     []byte
}

func (k requestKind) litmus() bool { return k.notation != "" }

// serviceRegistry and serviceLitmus are the service-mix request
// kinds; a pass sends each registry kind registryCopies times and each
// litmus kind litmusCopies times, the 3:1 mix.
var serviceRegistry = [][2]string{
	{"ms2", "T0"}, {"msn-nofence", "T0"}, {"harris", "Sac"},
	{"lazylist-bug", "Sac"}, {"msn", "T0"}, {"lazylist", "Sac"},
}

var serviceLitmus = [][2]string{
	{"sb", "( al rr | ar rl )"},
	{"mp", "( al ar | rr rl )"},
	{"lb", "( rr al | rl ar )"},
	{"corr", "( al | rl rl )"},
	{"sb+mp", "( al rr | ar rl | al ar | rr rl )"},
}

const (
	registryCopies = 5
	litmusCopies   = 2
)

func requestKinds() []requestKind {
	var kinds []requestKind
	add := func(k requestKind, prog job.Program, test string) {
		req := daemon.BatchRequest{Jobs: []daemon.BatchJob{{
			Check:  job.Check{Program: prog, Test: test},
			Models: allModels,
		}}}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // plain structs always marshal
		}
		k.body = body
		kinds = append(kinds, k)
	}
	for _, p := range serviceRegistry {
		add(requestKind{name: p[0] + "/" + p[1], impl: p[0], test: p[1]},
			job.Program{Name: p[0]}, p[1])
	}
	for _, l := range serviceLitmus {
		add(requestKind{name: litmusImplName + "/" + l[0], impl: litmusImplName,
			test: l[0], notation: l[1]}, litmusProgram, l[1])
	}
	return kinds
}

func serviceRows() []inputKey {
	var out []inputKey
	for _, k := range requestKinds() {
		for _, m := range allModels {
			out = append(out, inputKey{k.impl, k.test, m})
		}
	}
	return out
}

// passRand is the seeded source of one pass's ordering.
func passRand(seed int64, pass int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
}

// requestList is a pass's request sequence: the balanced 3:1 multiset
// of request kinds (indices into requestKinds), shuffled by the seed
// and cut to n when n > 0.
func requestList(seed int64, pass, n int) []int {
	var list []int
	for i := range serviceRegistry {
		for c := 0; c < registryCopies; c++ {
			list = append(list, i)
		}
	}
	for i := range serviceLitmus {
		for c := 0; c < litmusCopies; c++ {
			list = append(list, len(serviceRegistry)+i)
		}
	}
	r := passRand(seed, pass)
	r.Shuffle(len(list), func(a, b int) { list[a], list[b] = list[b], list[a] })
	if n > 0 && n < len(list) {
		list = list[:n]
	}
	return list
}

// shuffled returns a seeded permutation of rows.
func shuffled[T any](rows []T, seed int64, pass int) []T {
	out := append([]T(nil), rows...)
	r := passRand(seed, pass)
	r.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}
