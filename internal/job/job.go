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

// Op describes one operation of a program: the Fig. 8 mnemonic used
// in test notation ("e", "d") and the C function it calls. The
// function's first parameter must be a pointer to the shared object;
// NumArgs value parameters follow; an out-parameter pointer comes last
// when HasOut is set.
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
// (the bundled sync primitives can be included with the library's
// SyncSource), the initialization function, the global object passed
// to every operation and the operation signatures, and Name merely
// labels results. Kind optionally names a built-in reference semantics
// ("queue", "set", "deque"), enabling refset mining. The library's
// CheckDataType takes the same description.
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

// Impl builds the harness implementation of an inline program.
func (p Program) Impl() *harness.Impl {
	ops := make([]harness.OpSig, len(p.Ops))
	for i, op := range p.Ops {
		ops[i] = harness.OpSig(op)
	}
	return &harness.Impl{
		Name: p.Name, Kind: p.Kind, Source: p.Source,
		InitFunc: p.InitFunc, Obj: p.Object, Ops: ops,
	}
}

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

	// NoRangeAnalysis turns the range analysis (§3.4) off.
	NoRangeAnalysis bool `json:"no_range_analysis,omitempty"`

	// Budgets. A job exhausting them reports verdict "unknown" with a
	// budget report rather than erroring.
	Timeout        Duration `json:"timeout,omitempty"`
	ConflictBudget int64    `json:"conflict_budget,omitempty"`
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

// options validates the description without resolving the program
// (every enumerated field must parse and the program must be named)
// and maps it onto the core check options.
func (c *Check) options() (core.Options, error) {
	if c.Program.Name == "" {
		return core.Options{}, fmt.Errorf("job: program.name is required")
	}
	if c.Test == "" {
		return core.Options{}, fmt.Errorf("job: test is required")
	}
	if c.Program.Inline() {
		if len(c.Program.Ops) == 0 {
			return core.Options{}, fmt.Errorf("job: inline program %q has no operations", c.Program.Name)
		}
		if c.Program.InitFunc == "" || c.Program.Object == "" {
			return core.Options{}, fmt.Errorf("job: inline program %q needs init_func and object", c.Program.Name)
		}
	}
	model, err := memmodel.Parse(c.model())
	if err != nil {
		return core.Options{}, fmt.Errorf("job: %w", err)
	}
	src, err := parseSpecSource(c.SpecSource)
	if err != nil {
		return core.Options{}, err
	}
	if c.Timeout < 0 {
		return core.Options{}, fmt.Errorf("job: negative timeout %v", time.Duration(c.Timeout))
	}
	opts := core.Options{
		Model:                model,
		SpecSource:           src,
		DisableRangeAnalysis: c.NoRangeAnalysis,
		Deadline:             time.Duration(c.Timeout),
		ConflictBudget:       c.ConflictBudget,
	}
	if len(c.Bounds) > 0 {
		opts.InitialBounds = make(map[string]int, len(c.Bounds))
		for k, v := range c.Bounds {
			opts.InitialBounds[k] = v
		}
	}
	return opts, nil
}

// CoreJobs validates the description and renders it as core suite
// jobs, one per model in order (Check.Model alone when models is
// empty): options mapped, program and test resolved once — the harness
// registry for bundled programs, Program.Impl for inline source — and
// shared by every model's job. Inline programs ride the jobs' resolved
// references, so RunSuite's scheduler groups an inline entry's models
// into one model sweep exactly as it groups a bundled program's.
func (c Check) CoreJobs(models []string) ([]core.Job, error) {
	if len(models) == 0 {
		models = []string{c.Model}
	}
	jobs := make([]core.Job, len(models))
	for i, m := range models {
		c.Model = m
		opts, err := c.options()
		if err != nil {
			return nil, err
		}
		jobs[i].Opts = opts
	}
	var impl *harness.Impl
	var err error
	if c.Program.Inline() {
		impl = c.Program.Impl()
	} else if impl, err = harness.Get(c.Program.Name); err != nil {
		return nil, err
	}
	test, err := harness.GetTest(impl, c.Test)
	if err != nil {
		return nil, err
	}
	for i := range jobs {
		jobs[i].Impl = impl.Name
		if c.Program.Inline() {
			jobs[i].Test, jobs[i].ImplRef, jobs[i].TestRef = test.Name, impl, test
		} else {
			// The test as named: raw notation parses to a test
			// labelled "custom", which the registry cannot look up
			// again.
			jobs[i].Test = c.Test
		}
	}
	return jobs, nil
}
