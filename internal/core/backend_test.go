package core

import (
	"testing"

	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
	"checkfence/internal/rf"
	"checkfence/internal/spec"
)

// litmusImpl is a four-operation datatype whose ops are single global
// accesses, so harness tests compose into classic litmus shapes. It is
// squarely inside the reads-from fragment, so the rf engine can serve
// as its oracle.
func litmusImpl() *harness.Impl {
	return &harness.Impl{
		Name: "litmusdt", Kind: "litmus", Source: `
int x;
int y;

void init_lit(int *s) { x = 0; y = 0; }
void wx(int *s) { x = 1; }
void wy(int *s) { y = 1; }
int rx(int *s) { return x; }
int ry(int *s) { return y; }
`,
		InitFunc: "init_lit", Obj: "x",
		Ops: []harness.OpSig{
			{Mnemonic: "a", Func: "wx"},
			{Mnemonic: "b", Func: "wy"},
			{Mnemonic: "c", Func: "rx", HasRet: true},
			{Mnemonic: "d", Func: "ry", HasRet: true},
		},
	}
}

func checkLitmus(t *testing.T, notation string, opts Options) *Result {
	t.Helper()
	impl := litmusImpl()
	test, err := harness.ParseTest("lit", notation, impl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CheckImpl(impl, test, opts)
	if err != nil {
		t.Fatalf("CheckImpl(%s, %v): %v", notation, opts.Model, err)
	}
	return res
}

// TestBackendAgreement is the litmus ground truth of the SAT engine:
// each shape must pass or fail as the architecture says on every
// model, with a counterexample on every FAIL, and its mined
// observation set must equal the one the reads-from engine enumerates
// under Serial, which stays an independent oracle here.
func TestBackendAgreement(t *testing.T) {
	cases := []struct {
		name, notation string
		// fails[model]: whether the check must find a counterexample
		fails map[memmodel.Model]bool
	}{
		{"store-buffering", "( ad | bc )", map[memmodel.Model]bool{
			memmodel.SequentialConsistency: false,
			memmodel.TSO:                   true,
			memmodel.PSO:                   true,
			memmodel.Relaxed:               true,
		}},
		{"message-passing", "( ab | dc )", map[memmodel.Model]bool{
			memmodel.SequentialConsistency: false,
			memmodel.TSO:                   false,
			memmodel.PSO:                   true,
			memmodel.Relaxed:               true,
		}},
	}
	models := []memmodel.Model{memmodel.SequentialConsistency,
		memmodel.TSO, memmodel.PSO, memmodel.Relaxed}
	for _, tc := range cases {
		oracle := rfSerialSet(t, tc.notation)
		for _, model := range models {
			r := checkLitmus(t, tc.notation, Options{Model: model})
			if r.Pass == tc.fails[model] {
				t.Errorf("%s/%s: pass=%v, ground truth fails=%v",
					tc.name, model, r.Pass, tc.fails[model])
			}
			if !r.Pass && r.Cex == nil {
				t.Errorf("%s/%s: failed without a counterexample", tc.name, model)
			}
			if !r.Spec.Equal(oracle) {
				t.Errorf("%s/%s: mined observation set diverges from the rf oracle\nsat: %v\nrf:  %v",
					tc.name, model, r.Spec.All(), oracle.All())
			}
		}
	}
}

// rfSerialSet enumerates the Serial observation set of a litmus shape
// with the reads-from engine.
func rfSerialSet(t *testing.T, notation string) *spec.Set {
	t.Helper()
	impl := litmusImpl()
	test, err := harness.ParseTest("lit", notation, impl)
	if err != nil {
		t.Fatal(err)
	}
	built, err := harness.Build(impl, test)
	if err != nil {
		t.Fatal(err)
	}
	u, err := built.Unroll(nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := rf.Scan(u.Threads)
	if err != nil {
		t.Fatalf("rf.Scan(%s): %v", notation, err)
	}
	set, _, err := p.Observations(memmodel.Serial, built.Entries, rf.Budget{})
	if err != nil {
		t.Fatalf("rf Serial observations of %s: %v", notation, err)
	}
	return set
}
