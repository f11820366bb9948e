// fuzz.go implements the differential litmus fuzzer: small random
// litmus programs are generated from fuzz bytes and checked the same
// way a harness test is, with every stage cross-checked against an
// independent implementation. Any disagreement is a bug in CheckFence
// itself:
//
//   - the SAT-mined serial observation set must equal the set
//     enumerated by the reference interpreter over all thread
//     interleavings (the serial model runs whole threads atomically,
//     so these are exactly the thread permutations);
//   - the inclusion verdict must agree between the default encoder
//     configuration and classic Tseitin without preprocessing;
//   - verdicts must be monotone in model strength (an execution of a
//     stronger model is an execution of every weaker one);
//   - the polynomial reads-from engine (internal/rf) must accept every
//     generated program, reproduce the interpreter's serial set, and
//     match the SAT-mined observation set and inclusion verdict
//     bit-identically on every model;
//   - the selector-guarded sweep encoder, solved once per model by
//     SweepCheck, must reproduce every per-model verdict;
//   - every counterexample trace must survive the full validate
//     pipeline (axiom re-check plus interpreter replay).
package litmus

import (
	"fmt"
	"strings"

	"checkfence/internal/encode"
	"checkfence/internal/interp"
	"checkfence/internal/lsl"
	"checkfence/internal/memmodel"
	"checkfence/internal/ranges"
	"checkfence/internal/rf"
	"checkfence/internal/spec"
	"checkfence/internal/trace"
	"checkfence/internal/validate"
)

const (
	maxGenThreads      = 3
	maxGenOpsPerThread = 5
)

// GenProgram is a litmus program generated from fuzz bytes, in the
// shape Encoder.Encode expects: thread 0 is the initialization
// pseudo-thread, and every other thread is a single operation (one
// segment, OpID 0), so the serial model interleaves whole threads.
type GenProgram struct {
	Prog        *lsl.Program
	Bodies      [][]lsl.Stmt
	Threads     []encode.Thread
	Entries     []spec.Entry
	Names       map[int64]string
	ThreadNames []string
	desc        []string
}

// Generate decodes fuzz bytes into a program. The mapping is total:
// every byte string yields a well-formed, error-free program.
//
//	data[0]        thread count: 1 + data[0]%3
//	data[1+i]      one instruction for thread i%nThreads:
//	  bits 0-2     0-2 store, 3-5 load, 6-7 fence
//	  bit  3       address: 0 = x, 1 = y
//	  bits 3-4     fence kind (fences only)
//
// Store values are distinct across the whole program so that
// reads-from edges are observable in the final register values.
func Generate(data []byte) *GenProgram {
	nThreads := 2
	if len(data) > 0 {
		nThreads = 1 + int(data[0])%maxGenThreads
		data = data[1:]
	}
	locs := [2]string{"x", "y"}
	prog := lsl.NewProgram()
	prog.AddGlobal("x", 1)
	prog.AddGlobal("y", 1)

	p := &GenProgram{Prog: prog, Names: map[int64]string{}}
	for _, g := range prog.Globals {
		p.Names[g.Base] = g.Name
	}

	bodies := make([][]lsl.Stmt, nThreads+1)
	desc := make([]string, nThreads+1)
	bodies[0] = initLitmus()
	desc[0] = "init: x=0 y=0"
	for t := 1; t <= nThreads; t++ {
		bodies[t] = []lsl.Stmt{
			c(fmt.Sprintf("t%d.x", t), lsl.Ptr(0)),
			c(fmt.Sprintf("t%d.y", t), lsl.Ptr(1)),
		}
		desc[t] = fmt.Sprintf("t%d:", t)
	}

	counts := make([]int, nThreads+1)
	stores := make([]int, nThreads+1)
	loads := make([]int, nThreads+1)
	for i, b := range data {
		t := i%nThreads + 1
		if counts[t] >= maxGenOpsPerThread {
			continue
		}
		addr := locs[(b>>3)&1]
		addrReg := fmt.Sprintf("t%d.%s", t, addr)
		switch {
		case b&7 <= 2:
			val := int64((t-1)*maxGenOpsPerThread + stores[t] + 1)
			vreg := fmt.Sprintf("t%d.v%d", t, stores[t])
			bodies[t] = append(bodies[t], c(vreg, lsl.Int(val)), st(addrReg, vreg))
			desc[t] += fmt.Sprintf(" st %s=%d;", addr, val)
			stores[t]++
		case b&7 <= 5:
			dst := lsl.Reg(fmt.Sprintf("t%d.r%d", t, loads[t]))
			bodies[t] = append(bodies[t], &lsl.LoadStmt{Dst: dst, Addr: lsl.Reg(addrReg)})
			p.Entries = append(p.Entries, spec.Entry{Label: string(dst), Thread: t, Reg: dst})
			desc[t] += fmt.Sprintf(" ld r%d=%s;", loads[t], addr)
			loads[t]++
		default:
			k := lsl.FenceKind((b >> 3) & 3)
			bodies[t] = append(bodies[t], fence(k))
			desc[t] += fmt.Sprintf(" fence %s;", k)
		}
		counts[t]++
	}

	p.Bodies = bodies
	p.desc = desc
	p.ThreadNames = make([]string, len(bodies))
	p.Threads = make([]encode.Thread, len(bodies))
	for i, b := range bodies {
		name := fmt.Sprintf("t%d", i)
		if i == 0 {
			name = "init"
		}
		p.ThreadNames[i] = name
		p.Threads[i] = encode.Thread{Name: name, Segments: [][]lsl.Stmt{b}, OpIDs: []int{0}}
	}
	return p
}

// Desc renders the program one thread per line, for failure reports.
func (p *GenProgram) Desc() string { return strings.Join(p.desc, "\n") }

// SerialObservations enumerates the specification S(T,I) with the
// reference interpreter, independently of the SAT pipeline. Each
// generated thread is one operation and the serial model executes
// operations atomically, so the serial executions are exactly the
// permutations of the threads run whole after initialization.
func (p *GenProgram) SerialObservations() (*spec.Set, error) {
	n := len(p.Bodies) - 1
	set := spec.NewSet()
	runOrder := func(order []int) error {
		m := interp.NewMachine(p.Prog)
		envs := make([]map[lsl.Reg]lsl.Value, len(p.Bodies))
		if _, err := m.RunBody(p.Bodies[0]); err != nil {
			return fmt.Errorf("serial enumeration: init: %w", err)
		}
		for _, t := range order {
			env, err := m.RunBody(p.Bodies[t])
			if err != nil {
				return fmt.Errorf("serial enumeration: thread %d: %w", t, err)
			}
			envs[t] = env
		}
		obs := make(spec.Observation, len(p.Entries))
		for i, ent := range p.Entries {
			v, ok := envs[ent.Thread][ent.Reg]
			if !ok {
				v = lsl.Undef()
			}
			obs[i] = v
		}
		set.Add(obs)
		return nil
	}
	perm := make([]int, 0, n)
	used := make([]bool, n+1)
	var rec func() error
	rec = func() error {
		if len(perm) == n {
			return runOrder(perm)
		}
		for t := 1; t <= n; t++ {
			if used[t] {
				continue
			}
			used[t] = true
			perm = append(perm, t)
			if err := rec(); err != nil {
				return err
			}
			perm = perm[:len(perm)-1]
			used[t] = false
		}
		return nil
	}
	if err := rec(); err != nil {
		return nil, err
	}
	return set, nil
}

// diffConfig names an encoder configuration: the default minimized
// pipeline or classic Tseitin without preprocessing.
type diffConfig struct {
	name string
	enc  encode.Config
}

func diffConfigs() []diffConfig {
	return []diffConfig{
		{"default", encode.DefaultConfig()},
		{"tseitin", encode.Config{}},
	}
}

// RunDifferential generates a program from fuzz bytes and cross-checks
// the whole pipeline. A non-nil error is a divergence — a bug in
// CheckFence, never a property of the generated program.
func RunDifferential(data []byte) error {
	p := Generate(data)
	info := ranges.Analyze(p.Bodies)

	want, err := p.SerialObservations()
	if err != nil {
		return fmt.Errorf("%v\nprogram:\n%s", err, p.Desc())
	}

	// Stage 1: SAT mining on the Serial model must reproduce the
	// interpreter-enumerated set under every configuration.
	for _, cfg := range diffConfigs() {
		e := encode.NewWithConfig(memmodel.Serial, info, cfg.enc)
		if err := e.Encode(p.Threads); err != nil {
			return fmt.Errorf("encode serial [%s]: %v\nprogram:\n%s", cfg.name, err, p.Desc())
		}
		mined, _, err := spec.Mine(e, p.Entries)
		if err != nil {
			return fmt.Errorf("mine [%s]: %v\nprogram:\n%s", cfg.name, err, p.Desc())
		}
		if !mined.Equal(want) {
			return fmt.Errorf("divergence: SAT-mined serial set [%s] != interpreter enumeration\nprogram:\n%s\nmined:      %v\nenumerated: %v",
				cfg.name, p.Desc(), mined.All(), want.All())
		}
	}

	// Stage 1b: the polynomial reads-from oracle. Every generated
	// program lies inside its fragment, so Scan must accept, and its
	// Serial enumeration must reproduce the interpreter set.
	rfProg, err := rf.Scan(p.Threads)
	if err != nil {
		return fmt.Errorf("rf scan rejected a generated program: %v\nprogram:\n%s", err, p.Desc())
	}
	rfSerial, _, err := rfProg.Observations(memmodel.Serial, p.Entries, rf.Budget{})
	if err != nil {
		return fmt.Errorf("rf serial enumeration: %v\nprogram:\n%s", err, p.Desc())
	}
	if !rfSerial.Equal(want) {
		return fmt.Errorf("divergence: rf serial set != interpreter enumeration\nprogram:\n%s\nrf:         %v\nenumerated: %v",
			p.Desc(), rfSerial.All(), want.All())
	}

	// Stage 2: inclusion verdicts per model must agree across
	// configurations, and every counterexample must validate.
	models := memmodel.All()
	fail := map[memmodel.Model]bool{}
	for _, model := range models {
		verdicts := make([]bool, 0, 4)
		for _, cfg := range diffConfigs() {
			e := encode.NewWithConfig(model, info, cfg.enc)
			if err := e.Encode(p.Threads); err != nil {
				return fmt.Errorf("encode %s [%s]: %v\nprogram:\n%s", model, cfg.name, err, p.Desc())
			}
			cex, err := spec.CheckInclusion(e, p.Entries, want)
			if err != nil {
				return fmt.Errorf("inclusion %s [%s]: %v\nprogram:\n%s", model, cfg.name, err, p.Desc())
			}
			if cex != nil {
				tr := trace.Decode(e, cex, p.Entries, p.Names, p.ThreadNames)
				if verr := validate.Check(tr, p.Threads, p.Prog); verr != nil {
					return fmt.Errorf("divergence: %s [%s] counterexample failed validation: %v\nprogram:\n%s\nsuspect trace:\n%s",
						model, cfg.name, verr, p.Desc(), tr)
				}
			}
			verdicts = append(verdicts, cex != nil)
		}
		for i := 1; i < len(verdicts); i++ {
			if verdicts[i] != verdicts[0] {
				return fmt.Errorf("divergence: %s verdict differs across configs (%s=%v, %s=%v)\nprogram:\n%s",
					model, diffConfigs()[0].name, verdicts[0], diffConfigs()[i].name, verdicts[i], p.Desc())
			}
		}
		fail[model] = verdicts[0]

		// The rf oracle on the same model: its full observation set must
		// be bit-identical to SAT blocking-clause mining, its inclusion
		// verdict must match, and its witness trace must survive the same
		// validation pipeline as the SAT counterexamples.
		rfSet, _, err := rfProg.Observations(model, p.Entries, rf.Budget{})
		if err != nil {
			return fmt.Errorf("rf enumeration %s: %v\nprogram:\n%s", model, err, p.Desc())
		}
		e := encode.New(model, info)
		if err := e.Encode(p.Threads); err != nil {
			return fmt.Errorf("encode %s [rf-mine]: %v\nprogram:\n%s", model, err, p.Desc())
		}
		satSet, _, err := spec.MineWith(e, p.Entries, spec.Strategy{})
		if err != nil {
			return fmt.Errorf("mine %s [rf-mine]: %v\nprogram:\n%s", model, err, p.Desc())
		}
		if !rfSet.Equal(satSet) {
			return fmt.Errorf("divergence: rf observation set != SAT-mined set on %s\nprogram:\n%s\nrf:  %v\nsat: %v",
				model, p.Desc(), rfSet.All(), satSet.All())
		}
		rfCex, _, err := rfProg.CheckInclusion(model, p.Entries, want, p.Names, rf.Budget{})
		if err != nil {
			return fmt.Errorf("rf inclusion %s: %v\nprogram:\n%s", model, err, p.Desc())
		}
		if (rfCex != nil) != verdicts[0] {
			return fmt.Errorf("divergence: rf verdict on %s (cex=%v) != SAT verdict (cex=%v)\nprogram:\n%s",
				model, rfCex != nil, verdicts[0], p.Desc())
		}
		if rfCex != nil {
			if verr := validate.Check(rfCex, p.Threads, p.Prog); verr != nil {
				return fmt.Errorf("divergence: rf counterexample on %s failed validation: %v\nprogram:\n%s\nsuspect trace:\n%s",
					model, verr, p.Desc(), rfCex)
			}
		}
	}

	// The serial executions define the specification, so checking the
	// serial encoder against its own mined set must always pass.
	if fail[memmodel.Serial] {
		return fmt.Errorf("divergence: serial inclusion check failed against its own specification\nprogram:\n%s", p.Desc())
	}
	// Monotonicity: executions of a stronger model are a subset of the
	// weaker model's, so a counterexample on the stronger model implies
	// one on the weaker.
	for _, strong := range models {
		for _, weak := range models {
			if strong.StrongerThan(weak) && fail[strong] && !fail[weak] {
				return fmt.Errorf("divergence: counterexample on %s but none on weaker %s\nprogram:\n%s",
					strong, weak, p.Desc())
			}
		}
	}

	// Stage 3: the sweep encoder. One selector-guarded encoding over
	// every non-Serial model, solved once per model by SweepCheck,
	// must reproduce the per-model inclusion verdicts of the
	// independent encoders, and its counterexamples must validate.
	sweepModels := make([]memmodel.Model, 0, len(models)-1)
	for _, m := range models {
		if m != memmodel.Serial {
			sweepModels = append(sweepModels, m)
		}
	}
	se, err := encode.NewSweepWithConfig(sweepModels, info, encode.DefaultConfig())
	if err != nil {
		return fmt.Errorf("sweep encoder: %v\nprogram:\n%s", err, p.Desc())
	}
	if err := se.Encode(p.Threads); err != nil {
		return fmt.Errorf("sweep encode: %v\nprogram:\n%s", err, p.Desc())
	}
	sc, err := spec.NewSweepCheck(se, p.Entries, want)
	if err != nil {
		return fmt.Errorf("sweep check: %v\nprogram:\n%s", err, p.Desc())
	}
	for _, m := range sweepModels {
		cex, err := sc.Check(m)
		if err != nil {
			return fmt.Errorf("sweep check %s: %v\nprogram:\n%s", m, err, p.Desc())
		}
		if cex != nil && cex.IsErr {
			return fmt.Errorf("divergence: sweep check on %s found an error in an error-free program\nprogram:\n%s",
				m, p.Desc())
		}
		if (cex != nil) != fail[m] {
			return fmt.Errorf("divergence: sweep verdict on %s (cex=%v) != independent verdict (cex=%v)\nprogram:\n%s",
				m, cex != nil, fail[m], p.Desc())
		}
		if cex != nil {
			tr := trace.Decode(se, cex, p.Entries, p.Names, p.ThreadNames)
			tr.Model = m
			if verr := validate.Check(tr, p.Threads, p.Prog); verr != nil {
				return fmt.Errorf("divergence: sweep counterexample on %s failed validation: %v\nprogram:\n%s\nsuspect trace:\n%s",
					m, verr, p.Desc(), tr)
			}
		}
	}
	return nil
}
