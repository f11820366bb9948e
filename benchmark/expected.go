package main

import (
	"fmt"
	"sort"
)

// Expected verdicts, one per (implementation, test, model) input the
// workloads generate. Every verdict comes from a source independent of
// the checker under test: the paper's claims as restated in
// EXPERIMENTS.md (Table 1, §4.1, §4.2), the integration tests that pin
// them (TestRelaxedUnfencedFails, TestTSOMakesFencesAutomatic,
// TestPSOStillNeedsStoreStoreFences, TestLazyListInitBug), and the
// AllowedOn column of litmus.Tests(). Two sound closure rules extend a
// pinned verdict to other models:
//
//   - model monotonicity: a model stronger than another allows a subset
//     of its executions (SC > TSO > PSO > Relaxed), so PASS on a weaker
//     model implies PASS on every stronger one, and FAIL on a stronger
//     model implies FAIL on every weaker one;
//   - fences are no-ops under SC, so a "-nofence" variant has the same
//     SC verdict as its fenced original.
//
// Rows with no such answer are left out rather than filled in from a
// run of the checker: snark/Da (the paper gives no verdict for it and
// EXPERIMENTS.md only records this checker's own output), the PSO
// verdicts of the unfenced variants other than msn-nofence/T0, and the
// unfenced iriw litmus shape (litmus.Tests() pins only the fenced one).

const (
	vPass   = "pass"
	vFail   = "fail"
	vSeqBug = "seqbug" // fails on every model: a serial execution reaches a runtime error
)

// inputKey names one check input.
type inputKey struct {
	Impl, Test, Model string
}

func (k inputKey) String() string { return k.Impl + "/" + k.Test + "/" + k.Model }

var allModels = []string{"sc", "tso", "pso", "relaxed"}

// expectedTable builds the committed verdict table.
func expectedTable() map[inputKey]string {
	t := map[inputKey]string{}
	every := func(impl, test, verdict string) {
		for _, m := range allModels {
			t[inputKey{impl, test, m}] = verdict
		}
	}
	// §4.2: with the published fences every implementation passes on
	// Relaxed (TestRelaxedFencedPasses, Table 1), hence on every stronger
	// model.
	for impl, tests := range map[string][]string{
		"ms2":      {"T0", "T1", "Ti2", "Tpc2"},
		"msn":      {"T0", "Ti2", "Tpc2"},
		"lazylist": {"Sac", "Sar", "Saa"},
		"harris":   {"Sac", "Saa"},
	} {
		for _, test := range tests {
			every(impl, test, vPass)
		}
	}
	// §4.1: snark is buggy as published and fails D0 even under SC
	// (TestSnarkBugOnD0); removing fences changes nothing under SC.
	every("snark", "D0", vFail)
	every("snark-nofence", "D0", vFail)
	// §4.1: the lazylist pseudocode leaves n->marked uninitialized; a
	// serial add followed by contains (Sac) or remove (Sar) reads it.
	every("lazylist-bug", "Sac", vSeqBug)
	every("lazylist-bug", "Sar", vSeqBug)
	// §4.2: unfenced variants fail on Relaxed and pass on TSO, where
	// load-load and store-store order is automatic.
	for _, p := range [][2]string{
		{"ms2-nofence", "T0"}, {"msn-nofence", "T0"},
		{"lazylist-nofence", "Sac"}, {"harris-nofence", "Sac"},
	} {
		t[inputKey{p[0], p[1], "sc"}] = vPass
		t[inputKey{p[0], p[1], "tso"}] = vPass
		t[inputKey{p[0], p[1], "relaxed"}] = vFail
	}
	t[inputKey{"snark-nofence", "D0", "relaxed"}] = vFail
	// PSO relaxes store-store order: unfenced msn fails there.
	t[inputKey{"msn-nofence", "T0", "pso"}] = vFail

	// Litmus-shaped datatypes: an operation is one memory access, so a
	// non-serializable observation exists exactly when the shape's weak
	// outcome is observable on the model (litmus.Tests() AllowedOn).
	// sb+mp fails wherever sb's or mp's weak outcome is allowed: either
	// embeds a cycle no serial order explains, whatever the other
	// threads read; under SC, which allows neither, it passes.
	allowed := map[string][]string{
		"sb":   {"tso", "pso", "relaxed"},
		"mp":   {"pso", "relaxed"},
		"lb":   {"relaxed"},
		"corr": {"relaxed"}, // litmus.Tests() name: coRR
	}
	allowed["sb+mp"] = union(allowed["sb"], allowed["mp"])
	for shape, models := range allowed {
		every(litmusImplName, shape, vPass)
		for _, m := range models {
			t[inputKey{litmusImplName, shape, m}] = vFail
		}
	}
	return t
}

func union(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range append(append([]string{}, a...), b...) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// gate compares produced verdicts with the expected table.
type gate struct {
	want       map[inputKey]string
	mismatches []string
}

func newGate(want map[inputKey]string) *gate { return &gate{want: want} }

// cover reports every input the table has no verdict for.
func (g *gate) cover(keys []inputKey) error {
	var missing []string
	for _, k := range keys {
		if _, ok := g.want[k]; !ok {
			missing = append(missing, k.String())
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("expected table has no verdict for %v", missing)
	}
	return nil
}

// check records a mismatch between the produced and the expected
// verdict of one input.
func (g *gate) check(k inputKey, got string) {
	if want := g.want[k]; got != want {
		g.mismatches = append(g.mismatches, fmt.Sprintf("%s: got %s, want %s", k, got, want))
	}
}

func (g *gate) err() error {
	if len(g.mismatches) == 0 {
		return nil
	}
	return fmt.Errorf("%d verdict mismatches, first: %s", len(g.mismatches), g.mismatches[0])
}
