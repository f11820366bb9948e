package core

import (
	"errors"
	"maps"
	"testing"

	"checkfence/internal/encode"
	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
	"checkfence/internal/sat"
	"checkfence/internal/spec"
)

// startAttempt builds and unrolls a registry check at its initial
// bounds, the state checkAttempt probes from.
func startAttempt(t *testing.T, implName, testName string) *attempt {
	t.Helper()
	impl, err := harness.Get(implName)
	if err != nil {
		t.Fatal(err)
	}
	test, err := harness.GetTest(impl, testName)
	if err != nil {
		t.Fatal(err)
	}
	a := &attempt{impl: impl, test: test, opts: Options{Model: memmodel.Relaxed}}
	if err := a.start(); err != nil {
		t.Fatal(err)
	}
	return a
}

// oneModelConverge is the reference bound loop: one SAT model per
// round, growing only the loops that model flags. It returns the
// converged bounds and the number of unrollings (Stats.BoundRounds).
func oneModelConverge(t *testing.T, a *attempt) (map[string]int, int) {
	t.Helper()
	for rounds := 1; ; rounds++ {
		if rounds > harness.MaxUnrollings {
			t.Fatal("bounds did not converge")
		}
		probe, err := a.probe(memmodel.SequentialConsistency)
		if err != nil {
			t.Fatal(err)
		}
		probe.AssertSomeOverflow()
		switch probe.S.Solve() {
		case sat.Unsat:
			return a.u.Bounds, rounds
		case sat.Sat:
		default:
			t.Fatal("reference probe: solver Unknown")
		}
		bounds := maps.Clone(a.u.Bounds)
		for _, id := range probe.OverflowingLoops() {
			key, _ := a.u.LoopKey(id)
			bounds[key] = a.u.BoundFor(id) + 1
		}
		if a.u, err = a.built.StartUnrolling(bounds, true); err != nil {
			t.Fatal(err)
		}
	}
}

// sharedConverge runs checkAttempt's bound loop — the one the
// commit-point baseline shares — for the attempt's Relaxed check.
func sharedConverge(t *testing.T, a *attempt) (map[string]int, int) {
	t.Helper()
	if _, err := a.u.Converge(a.opts.Model, a.probe); err != nil {
		t.Fatal(err)
	}
	return a.u.Bounds, a.u.Rounds
}

// TestProbeEquivalence: growing every overflowable loop per probe
// converges to the same bounds as growing one model's loops per round,
// in fewer bound rounds. The bound loop here is checkAttempt's
// (harness.Unrolling.Converge), so its round count is the check's
// Stats.BoundRounds; the light rows confirm
// that on a full check and compare its verdict and observation set
// with a check started at the reference bounds. The heavy rows compare
// bounds only: equal bounds give the same final round, so the same
// answers, and their full checks would more than triple the test's time.
func TestProbeEquivalence(t *testing.T) {
	rows := []struct {
		impl, test string
		heavy      bool
		rounds     int // pinned bound rounds; 0 = not pinned
	}{
		{"msn", "T0", false, 0},
		{"harris", "Sac", false, 0},
		{"lazylist", "Sac", false, 0},
		{"msn", "Tpc2", true, 2},
		{"lazylist", "Sar", true, 3},
		{"harris", "Saa", true, 3},
		{"msn", "Ti2", true, 3},
		{"lazylist", "Saa", true, 3},
	}
	for _, row := range rows {
		t.Run(row.impl+"/"+row.test, func(t *testing.T) {
			if row.heavy && testing.Short() {
				t.Skip("heavy row; skipped with -short")
			}
			want, refRounds := oneModelConverge(t, startAttempt(t, row.impl, row.test))
			got, rounds := sharedConverge(t, startAttempt(t, row.impl, row.test))
			if !maps.Equal(got, want) {
				t.Fatalf("converged bounds %v; one-model-per-round probe converges to %v", got, want)
			}
			if rounds > refRounds {
				t.Errorf("%d bound rounds, more than the reference's %d", rounds, refRounds)
			}
			if row.rounds != 0 && rounds != row.rounds {
				t.Errorf("%d bound rounds; want %d", rounds, row.rounds)
			}
			if row.heavy {
				return
			}

			res := check(t, row.impl, row.test, Options{Model: memmodel.Relaxed})
			ref := check(t, row.impl, row.test, Options{Model: memmodel.Relaxed, InitialBounds: want})
			if res.Stats.BoundRounds != rounds {
				t.Errorf("check took %d bound rounds; the probe loop %d", res.Stats.BoundRounds, rounds)
			}
			if ref.Stats.BoundRounds != 1 {
				t.Errorf("check at the reference bounds grew them (%d rounds)", ref.Stats.BoundRounds)
			}
			if res.Verdict != ref.Verdict {
				t.Fatalf("verdict %v; %v at the reference bounds", res.Verdict, ref.Verdict)
			}
			if !res.Spec.Equal(ref.Spec) {
				t.Fatalf("observation set (%d) differs from the one at the reference bounds (%d)",
					res.Spec.Len(), ref.Spec.Len())
			}
		})
	}
}

// exclusiveLoopsImpl has one operation whose argument picks which of
// two loops runs; each needs two iterations, one more than the initial
// bound, and no single execution exceeds both bounds.
func exclusiveLoopsImpl(t *testing.T) *attempt {
	t.Helper()
	impl := &harness.Impl{
		Name: "twoloops", Kind: "litmus", Source: `
int x;

void init_p(int *s) { x = 0; }
void pick(int *s, int n) {
	int i = 0;
	if (n) {
		while (i < 2) { x = i; i = i + 1; }
	} else {
		while (i < 2) { x = i + 2; i = i + 1; }
	}
}
`,
		InitFunc: "init_p", Obj: "x",
		Ops: []harness.OpSig{{Mnemonic: "p", Func: "pick", NumArgs: 1}},
	}
	test, err := harness.ParseTest("p", "( p )", impl)
	if err != nil {
		t.Fatal(err)
	}
	a := &attempt{impl: impl, test: test, opts: Options{Model: memmodel.Relaxed}}
	if err := a.start(); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestProbeGrowsEveryLoopInOneRound(t *testing.T) {
	a := exclusiveLoopsImpl(t)
	grew, err := a.u.Converge(memmodel.SequentialConsistency, a.probe)
	if err != nil || !grew {
		t.Fatalf("Converge = %v, %v; want growth", grew, err)
	}
	if len(a.u.Bounds) != 2 {
		t.Fatalf("grew bounds %v; want both loops grown", a.u.Bounds)
	}
	// Both loops converge at bound 3. Growing both per probe takes two
	// growths; growing only one model's loop per probe would take four.
	if a.u.Rounds != 3 {
		t.Fatalf("%d unrollings to bounds %v; want 3 (both loops grow in each probe)", a.u.Rounds, a.u.Bounds)
	}
}

// TestProbeStoppedMidCollection stops the probe's second solve, after
// the first found one of the two loops: the bound loop must report
// ErrSolverUnknown and leave the bounds alone, not grow that one loop
// as if the bounds had converged.
func TestProbeStoppedMidCollection(t *testing.T) {
	a := exclusiveLoopsImpl(t)
	calls := 0
	before := maps.Clone(a.u.Bounds)
	grew, err := a.u.Converge(memmodel.SequentialConsistency, func(m memmodel.Model) (*encode.Encoder, error) {
		probe, err := a.probe(m)
		if err == nil {
			probe.S.SetStop(func() bool { calls++; return calls > 1 })
		}
		return probe, err
	})
	if !errors.Is(err, spec.ErrSolverUnknown) || grew {
		t.Fatalf("Converge = %v, %v; want ErrSolverUnknown", grew, err)
	}
	if calls != 2 {
		t.Fatalf("stop consulted %d times; want 2 (the first solve finished, the second stopped)", calls)
	}
	if !maps.Equal(a.u.Bounds, before) || a.u.Rounds != 1 {
		t.Fatalf("bounds grew to %v (%d unrollings) on a stopped probe", a.u.Bounds, a.u.Rounds)
	}
}
