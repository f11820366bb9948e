// Package job defines the serializable check description: one
// CheckFence verification problem — program, test, memory model,
// unrolling bounds, solver strategy and resource budgets —
// round-tripped through JSON. It is the wire format of the checkfenced
// daemon's /v1/check endpoint: everything a check depends on is in the
// description, so any process holding it can produce the same verdict.
package job

import (
	"encoding/json"
	"fmt"
	"time"

	"checkfence/internal/core"
	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
)

// Duration marshals a time.Duration as a Go duration string ("1m30s")
// and unmarshals either that form or a bare JSON number of
// nanoseconds (time.Duration's native unit).
type Duration time.Duration

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "30s"-style strings and nanosecond numbers.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		parsed, perr := time.ParseDuration(s)
		if perr != nil {
			return fmt.Errorf("job: bad duration %q: %w", s, perr)
		}
		*d = Duration(parsed)
		return nil
	}
	var n int64
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("job: duration must be a string like \"30s\" or a nanosecond count: %s", data)
	}
	*d = Duration(n)
	return nil
}

// Op describes one operation of an inline program (mirrors
// harness.OpSig).
type Op struct {
	Mnemonic string `json:"mnemonic"`
	Func     string `json:"func"`
	NumArgs  int    `json:"num_args,omitempty"`
	HasRet   bool   `json:"has_ret,omitempty"`
	HasOut   bool   `json:"has_out,omitempty"`
}

// Program names the implementation under check. With only Name set it
// refers to a bundled registry implementation ("msn", "lazylist-bug",
// ...). With Source set it carries a complete inline C implementation
// — the daemon form of the library's CheckDataType — and Name merely
// labels results.
type Program struct {
	Name     string `json:"name"`
	Source   string `json:"source,omitempty"`
	InitFunc string `json:"init_func,omitempty"`
	Object   string `json:"object,omitempty"`
	Kind     string `json:"kind,omitempty"`
	Ops      []Op   `json:"ops,omitempty"`
}

// Inline reports whether the program carries its own source.
func (p Program) Inline() bool { return p.Source != "" }

// Check is one serializable verification job. The zero value of every
// optional field selects the library default, so a minimal description
// is just {"program":{"name":"msn"},"test":"T0","model":"relaxed"}.
type Check struct {
	Program Program `json:"program"`
	// Test is a Fig. 8 test name ("T0", "Tpc2") or raw notation
	// ("e ( ed | de )").
	Test string `json:"test"`
	// Model is the memory model: "sc", "tso", "pso", "relaxed",
	// "serial".
	Model string `json:"model"`
	// SpecSource is "sat" (default: mine from the implementation) or
	// "refset".
	SpecSource string `json:"spec_source,omitempty"`
	// Bounds seeds the per-loop unrolling bounds.
	Bounds map[string]int `json:"bounds,omitempty"`

	// Solver strategy.
	MaxMineIterations int  `json:"max_mine_iterations,omitempty"`
	NoRangeAnalysis   bool `json:"no_range_analysis,omitempty"`
	NoValidate        bool `json:"no_validate,omitempty"`
	// Sweep is "auto" (default: join model-sweep groups) or "off".
	Sweep string `json:"sweep,omitempty"`

	// Budgets. A job exhausting them reports verdict "unknown" with a
	// budget report rather than erroring.
	Timeout        Duration `json:"timeout,omitempty"`
	ConflictBudget int64    `json:"conflict_budget,omitempty"`
	MemBudgetMB    int      `json:"mem_budget_mb,omitempty"`
}

// Validate checks the description without resolving the program:
// every enumerated field must parse and the program must be named.
func (c *Check) Validate() error {
	if c.Program.Name == "" {
		return fmt.Errorf("job: program.name is required")
	}
	if c.Test == "" {
		return fmt.Errorf("job: test is required")
	}
	if _, err := memmodel.Parse(c.model()); err != nil {
		return fmt.Errorf("job: %w", err)
	}
	if _, err := parseSpecSource(c.SpecSource); err != nil {
		return err
	}
	if _, err := core.ParseSweepMode(c.Sweep); err != nil {
		return fmt.Errorf("job: %w", err)
	}
	if c.Timeout < 0 {
		return fmt.Errorf("job: negative timeout %v", time.Duration(c.Timeout))
	}
	if c.Program.Inline() {
		if len(c.Program.Ops) == 0 {
			return fmt.Errorf("job: inline program %q has no operations", c.Program.Name)
		}
		if c.Program.InitFunc == "" || c.Program.Object == "" {
			return fmt.Errorf("job: inline program %q needs init_func and object", c.Program.Name)
		}
	}
	return nil
}

func (c *Check) model() string {
	if c.Model == "" {
		return "relaxed"
	}
	return c.Model
}

func parseSpecSource(s string) (core.SpecSource, error) {
	switch s {
	case "", "sat":
		return core.SpecSAT, nil
	case "refset", "ref":
		return core.SpecRef, nil
	}
	return 0, fmt.Errorf("job: unknown spec source %q (want sat or refset)", s)
}

// Options maps the description onto the core check options.
func (c *Check) Options() (core.Options, error) {
	if err := c.Validate(); err != nil {
		return core.Options{}, err
	}
	model, _ := memmodel.Parse(c.model())
	src, _ := parseSpecSource(c.SpecSource)
	sweep, _ := core.ParseSweepMode(c.Sweep)
	opts := core.Options{
		Model:                model,
		SpecSource:           src,
		DisableRangeAnalysis: c.NoRangeAnalysis,
		MaxMineIterations:    c.MaxMineIterations,
		NoValidate:           c.NoValidate,
		Deadline:             time.Duration(c.Timeout),
		ConflictBudget:       c.ConflictBudget,
		MemBudgetMB:          c.MemBudgetMB,
		Sweep:                sweep,
	}
	if len(c.Bounds) > 0 {
		opts.InitialBounds = make(map[string]int, len(c.Bounds))
		for k, v := range c.Bounds {
			opts.InitialBounds[k] = v
		}
	}
	return opts, nil
}

// Resolve produces the implementation and test structures the
// description names: the harness registry for bundled programs, a
// freshly built harness.Impl for inline source.
func (c *Check) Resolve() (*harness.Impl, *harness.Test, error) {
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	if !c.Program.Inline() {
		impl, err := harness.Get(c.Program.Name)
		if err != nil {
			return nil, nil, err
		}
		test, err := harness.GetTest(impl, c.Test)
		if err != nil {
			return nil, nil, err
		}
		return impl, test, nil
	}
	ops := make([]harness.OpSig, len(c.Program.Ops))
	for i, op := range c.Program.Ops {
		ops[i] = harness.OpSig{
			Mnemonic: op.Mnemonic, Func: op.Func,
			NumArgs: op.NumArgs, HasRet: op.HasRet, HasOut: op.HasOut,
		}
	}
	impl := &harness.Impl{
		Name: c.Program.Name, Kind: c.Program.Kind, Source: c.Program.Source,
		InitFunc: c.Program.InitFunc, Obj: c.Program.Object, Ops: ops,
	}
	test, err := harness.GetTest(impl, c.Test)
	if err != nil {
		return nil, nil, err
	}
	return impl, test, nil
}

// CoreJob renders the description as a core suite job: options mapped,
// program and test resolved (inline programs ride the Job's resolved
// references, so RunSuite's scheduler — sweep grouping included —
// treats them exactly like bundled ones).
func (c *Check) CoreJob() (core.Job, error) {
	opts, err := c.Options()
	if err != nil {
		return core.Job{}, err
	}
	impl, test, err := c.Resolve()
	if err != nil {
		return core.Job{}, err
	}
	j := core.Job{Impl: impl.Name, Test: test.Name, Opts: opts}
	if c.Program.Inline() {
		j.ImplRef = impl
		j.TestRef = test
	}
	return j, nil
}

// FromOptions renders a (bundled implementation, test, options) triple
// as a description, inverting Options. Used to mirror CLI invocations
// onto the wire format.
func FromOptions(implName, testName string, o core.Options) Check {
	c := Check{
		Program:           Program{Name: implName},
		Test:              testName,
		Model:             o.Model.String(),
		NoRangeAnalysis:   o.DisableRangeAnalysis,
		MaxMineIterations: o.MaxMineIterations,
		NoValidate:        o.NoValidate,
		Timeout:           Duration(o.Deadline),
		ConflictBudget:    o.ConflictBudget,
		MemBudgetMB:       o.MemBudgetMB,
	}
	if o.SpecSource == core.SpecRef {
		c.SpecSource = "refset"
	}
	if o.Sweep == core.SweepOff {
		c.Sweep = "off"
	}
	if len(o.InitialBounds) > 0 {
		c.Bounds = make(map[string]int, len(o.InitialBounds))
		for k, v := range o.InitialBounds {
			c.Bounds[k] = v
		}
	}
	return c
}
