package job

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"checkfence/internal/core"
	"checkfence/internal/memmodel"
)

func TestRoundTrip(t *testing.T) {
	c := Check{
		Program:           Program{Name: "msn"},
		Test:              "T0",
		Model:             "tso",
		SpecSource:        "refset",
		Bounds:            map[string]int{"L0": 2},
		MaxMineIterations: 100,
		NoRangeAnalysis:   true,
		NoValidate:        true,
		Sweep:             "off",
		Timeout:           Duration(90 * time.Second),
		ConflictBudget:    1 << 20,
		MemBudgetMB:       256,
	}
	data, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	var back Check
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Fatalf("round trip changed the description:\n%s\n%s", data, again)
	}
	if !reflect.DeepEqual(back, c) {
		t.Errorf("round trip changed the decoded check:\n%+v\n%+v", back, c)
	}
}

func TestDurationForms(t *testing.T) {
	var c Check
	if err := json.Unmarshal([]byte(`{"program":{"name":"msn"},"test":"T0","timeout":"1m30s"}`), &c); err != nil {
		t.Fatal(err)
	}
	if time.Duration(c.Timeout) != 90*time.Second {
		t.Errorf("string timeout = %v, want 90s", time.Duration(c.Timeout))
	}
	if err := json.Unmarshal([]byte(`{"program":{"name":"msn"},"test":"T0","timeout":5000000000}`), &c); err != nil {
		t.Fatal(err)
	}
	if time.Duration(c.Timeout) != 5*time.Second {
		t.Errorf("numeric timeout = %v, want 5s", time.Duration(c.Timeout))
	}
	if err := json.Unmarshal([]byte(`{"timeout":"fast"}`), &c); err == nil {
		t.Error("expected error for unparsable duration")
	}
}

func TestOptionsMapping(t *testing.T) {
	c := Check{
		Program:        Program{Name: "msn"},
		Test:           "T0",
		Model:          "pso",
		SpecSource:     "refset",
		Sweep:          "off",
		NoValidate:     true,
		Timeout:        Duration(2 * time.Second),
		ConflictBudget: 777,
		Bounds:         map[string]int{"L1": 3},
	}
	opts, err := c.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Model != memmodel.PSO {
		t.Errorf("model = %v", opts.Model)
	}
	if opts.SpecSource != core.SpecRef {
		t.Errorf("spec source = %v", opts.SpecSource)
	}
	if opts.Sweep != core.SweepOff {
		t.Errorf("sweep = %v", opts.Sweep)
	}
	if !opts.NoValidate {
		t.Error("validation not disabled")
	}
	if opts.Deadline != 2*time.Second {
		t.Errorf("deadline = %v", opts.Deadline)
	}
	if opts.ConflictBudget != 777 {
		t.Errorf("conflict budget = %d", opts.ConflictBudget)
	}
	if opts.InitialBounds["L1"] != 3 {
		t.Errorf("bounds = %v", opts.InitialBounds)
	}
}

func TestFromOptionsInverts(t *testing.T) {
	orig := core.Options{
		Model:         memmodel.TSO,
		SpecSource:    core.SpecRef,
		Sweep:         core.SweepOff,
		NoValidate:    true,
		Deadline:      time.Minute,
		InitialBounds: map[string]int{"L0": 4},
	}
	c := FromOptions("ms2", "Tr1", orig)
	got, err := c.Options()
	if err != nil {
		t.Fatal(err)
	}
	if got.Model != orig.Model ||
		got.SpecSource != orig.SpecSource || got.Sweep != orig.Sweep ||
		got.NoValidate != orig.NoValidate ||
		got.Deadline != orig.Deadline {
		t.Errorf("FromOptions . Options != identity:\norig %+v\ngot  %+v", orig, got)
	}
	if got.InitialBounds["L0"] != 4 {
		t.Errorf("bounds lost: %v", got.InitialBounds)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		c    Check
		want string
	}{
		{"no program", Check{Test: "T0"}, "program.name"},
		{"no test", Check{Program: Program{Name: "msn"}}, "test is required"},
		{"bad model", Check{Program: Program{Name: "msn"}, Test: "T0", Model: "ppc"}, "ppc"},
		{"bad spec source", Check{Program: Program{Name: "msn"}, Test: "T0", SpecSource: "oracle"}, "spec source"},
		{"bad sweep", Check{Program: Program{Name: "msn"}, Test: "T0", Sweep: "sideways"}, "sideways"},
		{"negative timeout", Check{Program: Program{Name: "msn"}, Test: "T0", Timeout: Duration(-1)}, "negative timeout"},
		{"inline no ops", Check{Program: Program{Name: "x", Source: "int x;"}, Test: "T0"}, "no operations"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.c.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestResolveRegistryAndInline(t *testing.T) {
	reg := Check{Program: Program{Name: "msn"}, Test: "T0"}
	impl, test, err := reg.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if impl.Name != "msn" || test == nil {
		t.Errorf("registry resolve: %v %v", impl, test)
	}

	// Inline program cloned from a bundled one must resolve and check
	// identically to the registry path.
	inline := Check{
		Program: Program{
			Name:     "inline-msn",
			Source:   impl.Source,
			InitFunc: impl.InitFunc,
			Object:   impl.Obj,
			Kind:     impl.Kind,
		},
		Test: "T0",
	}
	for _, op := range impl.Ops {
		inline.Program.Ops = append(inline.Program.Ops, Op{
			Mnemonic: op.Mnemonic, Func: op.Func,
			NumArgs: op.NumArgs, HasRet: op.HasRet, HasOut: op.HasOut,
		})
	}
	iimpl, itest, err := inline.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if iimpl.Name != "inline-msn" || itest.Name != test.Name {
		t.Errorf("inline resolve: %v %v", iimpl.Name, itest.Name)
	}
	j, err := inline.CoreJob()
	if err != nil {
		t.Fatal(err)
	}
	if j.ImplRef == nil || j.TestRef == nil {
		t.Error("inline CoreJob should carry resolved refs")
	}
	if rj, err := reg.CoreJob(); err != nil || rj.ImplRef != nil {
		t.Errorf("registry CoreJob should not carry refs: %v %v", rj.ImplRef, err)
	}
}
