package job

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"checkfence/internal/core"
	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
)

func TestRoundTrip(t *testing.T) {
	c := Check{
		Program:         Program{Name: "msn"},
		Test:            "T0",
		Model:           "tso",
		SpecSource:      "refset",
		Bounds:          map[string]int{"L0": 2},
		NoRangeAnalysis: true,
		Timeout:         Duration(90 * time.Second),
		ConflictBudget:  1 << 20,
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
		Program:         Program{Name: "msn"},
		Test:            "T0",
		Model:           "pso",
		SpecSource:      "refset",
		NoRangeAnalysis: true,
		Timeout:         Duration(2 * time.Second),
		ConflictBudget:  777,
		Bounds:          map[string]int{"L1": 3},
	}
	js, err := c.CoreJobs(nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := js[0].Opts
	if opts.Model != memmodel.PSO {
		t.Errorf("model = %v", opts.Model)
	}
	if opts.SpecSource != core.SpecRef {
		t.Errorf("spec source = %v", opts.SpecSource)
	}
	if !opts.DisableRangeAnalysis {
		t.Error("range analysis not disabled")
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
		{"negative timeout", Check{Program: Program{Name: "msn"}, Test: "T0", Timeout: Duration(-1)}, "negative timeout"},
		{"inline no ops", Check{Program: Program{Name: "x", Source: "int x;"}, Test: "T0"}, "no operations"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.c.CoreJobs(nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("CoreJobs() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestResolveRegistryAndInline(t *testing.T) {
	reg := Check{Program: Program{Name: "msn"}, Test: "T0"}
	rjs, err := reg.CoreJobs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rj := rjs[0]; rj.Impl != "msn" || rj.Test != "T0" || rj.ImplRef != nil {
		t.Errorf("registry CoreJobs = %+v, want msn/T0 without refs", rj)
	}
	impl, err := harness.Get("msn")
	if err != nil {
		t.Fatal(err)
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
	js, err := inline.CoreJobs([]string{"sc", "relaxed"})
	if err != nil {
		t.Fatal(err)
	}
	j := js[0]
	if j.ImplRef == nil || j.TestRef == nil {
		t.Fatal("inline CoreJobs should carry resolved refs")
	}
	if j.Impl != "inline-msn" || j.TestRef.Name != "T0" {
		t.Errorf("inline CoreJobs = %s/%s", j.Impl, j.TestRef.Name)
	}
	// Every model of an entry shares the one resolution, so the
	// scheduler can group the models into a sweep.
	if js[1].ImplRef != j.ImplRef || js[1].TestRef != j.TestRef {
		t.Error("inline models resolved separately: they cannot sweep together")
	}
	if j.Opts.Model != memmodel.SequentialConsistency || js[1].Opts.Model != memmodel.Relaxed {
		t.Errorf("models = %v, %v; want sc, relaxed", j.Opts.Model, js[1].Opts.Model)
	}
	if !reflect.DeepEqual(j.ImplRef.Ops, impl.Ops) {
		t.Errorf("inline ops %+v, registry ops %+v", j.ImplRef.Ops, impl.Ops)
	}
}
