package core

import (
	"errors"
	"fmt"
	"maps"
	"testing"

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

// oneModelProbe is the reference bound probe: one SAT model per
// round, growing only the loops that model flags.
func oneModelProbe(a *attempt, model memmodel.Model) (bool, error) {
	probe, err := a.encode([]memmodel.Model{model})
	if err != nil {
		return false, err
	}
	probe.AssertSomeOverflow()
	switch probe.S.Solve() {
	case sat.Unsat:
		return false, nil
	case sat.Sat:
	default:
		return false, fmt.Errorf("reference probe: %w", spec.ErrSolverUnknown)
	}
	ids := probe.OverflowingLoops()
	for _, id := range ids {
		key, _ := a.unrolled.LoopKey(id)
		a.bounds[key] = a.unrolled.BoundFor(id) + 1
	}
	return len(ids) > 0, nil
}

// converge grows the attempt's bounds with the given probe until it
// reports no growth, returning the converged bounds and the number of
// unrollings (Stats.BoundRounds).
func converge(t *testing.T, a *attempt, probe func(*attempt, memmodel.Model) (bool, error)) (map[string]int, int) {
	t.Helper()
	rounds := 1
	for {
		grew, err := probe(a, memmodel.SequentialConsistency)
		if err != nil {
			t.Fatal(err)
		}
		if !grew {
			return a.bounds, rounds
		}
		if rounds++; rounds > 12 {
			t.Fatal("bounds did not converge")
		}
		if err := a.unroll(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestProbeEquivalence: growing every overflowable loop per probe
// converges to the same bounds as growing one model's loops per round,
// in fewer bound rounds. The probe loop here is checkAttempt's, so its
// round count is the check's Stats.BoundRounds; the light rows confirm
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
			want, refRounds := converge(t, startAttempt(t, row.impl, row.test), oneModelProbe)
			got, rounds := converge(t, startAttempt(t, row.impl, row.test), (*attempt).probeBounds)
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
	grew, err := a.probeBounds(memmodel.SequentialConsistency)
	if err != nil || !grew {
		t.Fatalf("probeBounds = %v, %v; want growth", grew, err)
	}
	if len(a.bounds) != 2 {
		t.Fatalf("grew bounds %v; want both loops grown", a.bounds)
	}
}

// TestProbeStoppedMidCollection stops the probe's second solve, after
// the first found one of the two loops: the check must report
// ErrSolverUnknown and leave the bounds alone, not grow that one loop
// as if the bounds had converged.
func TestProbeStoppedMidCollection(t *testing.T) {
	a := exclusiveLoopsImpl(t)
	probe, err := a.encode([]memmodel.Model{memmodel.SequentialConsistency})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	probe.S.SetStop(func() bool { calls++; return calls > 1 })
	before := maps.Clone(a.bounds)
	grew, err := a.growOverflowing(probe)
	if !errors.Is(err, spec.ErrSolverUnknown) || grew {
		t.Fatalf("growOverflowing = %v, %v; want ErrSolverUnknown", grew, err)
	}
	if calls != 2 {
		t.Fatalf("stop consulted %d times; want 2 (the first solve finished, the second stopped)", calls)
	}
	if !maps.Equal(a.bounds, before) {
		t.Fatalf("bounds grew to %v on a stopped probe", a.bounds)
	}
}
