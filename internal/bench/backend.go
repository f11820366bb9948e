package bench

// This file measures the multi-backend router: litmus-scale rows (the
// programs the cost model routes to the polynomial reads-from engine)
// compare the rf solve against the serial SAT solve, and study-set rows
// compare the auto backend's time against the forced SAT backend,
// recording the router's decision per row. Every comparison
// first asserts verdict and observation-set agreement — a backend that
// wins by answering differently is a soundness bug, not a speedup. The
// result is the BENCH_backend.json artifact.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"checkfence/internal/core"
	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
)

// litmusBackendImpl is a four-operation datatype whose ops are single
// global accesses, composing into the classic litmus shapes. Mnemonics:
// a = write x, b = write y, c = read x, d = read y.
func litmusBackendImpl() *harness.Impl {
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

// litmusBackendTests are the litmus-scale rows.
var litmusBackendTests = []struct{ name, notation string }{
	{"sb", "( ad | bc )"},
	{"mp", "( ab | dc )"},
	{"lb", "( da | cb )"},
	{"iriw", "( a | b | cd | dc )"},
	{"corr", "( a | cc )"},
	{"sb+mp", "( ad | bc | ab | dc )"},
}

// backendHarnessPairs are the study-set rows of the auto-vs-forced
// comparison; -quick keeps the cheap half.
var backendHarnessPairs = []struct{ impl, test string }{
	{"msn", "T0"},
	{"ms2", "T0"},
	{"lazylist", "Sac"},
	{"msn", "Tpc2"},
	{"ms2", "Tpc2"},
	{"snark", "D0"},
}

var quickBackendPairs = map[string]bool{
	"msn/T0": true, "ms2/T0": true, "lazylist/Sac": true,
}

// BackendLitmusRow is one litmus-scale measurement: the same check
// solved by the reads-from engine and by the serial SAT pipeline.
type BackendLitmusRow struct {
	Name     string `json:"name"`
	Notation string `json:"notation"`
	Model    string `json:"model"`
	Verdict  string `json:"verdict"`
	// RouterDecision is the auto backend's reasoning on this row; the
	// litmus rows must all route to rf.
	RouterDecision string  `json:"router_decision"`
	ObsSetSize     int     `json:"obs_set_size"`
	RFSolveSec     float64 `json:"rf_solve_sec"`
	SerialSolveSec float64 `json:"serial_solve_sec"`
	RFSpeedup      float64 `json:"rf_speedup"`
}

// BackendHarnessRow is one study-set measurement: the auto backend
// against the forced SAT backend.
type BackendHarnessRow struct {
	Impl           string  `json:"impl"`
	Test           string  `json:"test"`
	Model          string  `json:"model"`
	Verdict        string  `json:"verdict"`
	RouterDecision string  `json:"router_decision"`
	AutoSec        float64 `json:"auto_sec"`
	SATSec         float64 `json:"sat_sec"`
	// AutoVsSAT is auto_sec over sat_sec: 1.0 means auto cost nothing
	// over being told the backend, above 1.0 is routing overhead or a
	// misrouting.
	AutoVsSAT float64 `json:"auto_vs_sat"`
}

// BackendArtifact is the BENCH_backend.json schema.
type BackendArtifact struct {
	GeneratedAt     string              `json:"generated_at"`
	Model           string              `json:"model"`
	CPUs            int                 `json:"cpus"`
	LitmusRows      []BackendLitmusRow  `json:"litmus_rows"`
	HarnessRows     []BackendHarnessRow `json:"harness_rows"`
	MedianRFSpeedup float64             `json:"median_rf_speedup"`
	// MaxAutoVsSAT is the worst auto_vs_sat ratio over the harness
	// rows — the auto backend's worst-case cost of not being told the
	// backend in advance.
	MaxAutoVsSAT float64 `json:"max_auto_vs_sat"`
}

// solveSec is the comparable per-backend work of a check: mining,
// encoding, and the inclusion solve (build and unroll are shared by
// every backend and excluded).
func solveSec(res *core.Result) float64 {
	return (res.Stats.MineTime + res.Stats.EncodeTime + res.Stats.RefuteTime).Seconds()
}

// checkBest runs one check reps times and keeps the fastest result —
// litmus checks finish in microseconds, where a single sample is noise.
func checkBest(impl *harness.Impl, test *harness.Test, opts core.Options, reps int) (*core.Result, error) {
	var best *core.Result
	for i := 0; i < reps; i++ {
		res, err := core.CheckImpl(impl, test, opts)
		if err != nil {
			return nil, err
		}
		if best == nil || solveSec(res) < solveSec(best) {
			best = res
		}
	}
	return best, nil
}

// BackendReport measures the multi-backend router, prints the
// comparison, and writes the artifact to jsonPath ("" = print only).
func (r *Runner) BackendReport(jsonPath string) error {
	model := memmodel.Relaxed
	art := BackendArtifact{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Model:       model.String(),
		CPUs:        runtime.NumCPU(),
	}

	r.printf("Multi-backend routing: rf vs serial SAT on litmus-scale rows (model: %s)\n", model)
	r.printf("%-7s %-22s | %11s %11s | %8s | %s\n",
		"row", "notation", "rf[s]", "serial[s]", "speedup", "verdict")
	impl := litmusBackendImpl()
	var rfSpeedups []float64
	for _, lt := range litmusBackendTests {
		test, err := harness.ParseTest(lt.name, lt.notation, impl)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", lt.name, err)
		}
		const reps = 3
		auto, err := checkBest(impl, test, core.Options{Model: model}, reps)
		if err != nil {
			return fmt.Errorf("bench: %s (auto): %w", lt.name, err)
		}
		if auto.Stats.Backend != "rf" {
			return fmt.Errorf("bench: %s: auto routed to %q (%s), want rf",
				lt.name, auto.Stats.Backend, auto.Stats.RouterDecision)
		}
		serial, err := checkBest(impl, test, core.Options{Model: model, Backend: core.BackendSAT}, reps)
		if err != nil {
			return fmt.Errorf("bench: %s (sat): %w", lt.name, err)
		}
		a := Row{Impl: impl.Name, Test: lt.name, Res: auto}
		b := Row{Impl: impl.Name, Test: lt.name, Res: serial}
		if err := checkAgreement(a, b); err != nil {
			return fmt.Errorf("rf disagrees with SAT: %w", err)
		}
		verdict := "pass"
		if !auto.Pass {
			verdict = "FAIL"
		}
		row := BackendLitmusRow{
			Name: lt.name, Notation: lt.notation, Model: model.String(), Verdict: verdict,
			RouterDecision: auto.Stats.RouterDecision,
			ObsSetSize:     auto.Stats.ObsSetSize,
			RFSolveSec:     solveSec(auto),
			SerialSolveSec: solveSec(serial),
		}
		row.RFSpeedup = speedup(row.SerialSolveSec, row.RFSolveSec)
		art.LitmusRows = append(art.LitmusRows, row)
		rfSpeedups = append(rfSpeedups, row.RFSpeedup)
		r.printf("%-7s %-22s | %11.6f %11.6f | %7.1fx | %s\n",
			row.Name, row.Notation, row.RFSolveSec, row.SerialSolveSec, row.RFSpeedup, verdict)
	}
	art.MedianRFSpeedup = median(rfSpeedups)
	r.printf("median rf speedup: %.1fx\n\n", art.MedianRFSpeedup)

	r.printf("Auto backend vs forced SAT on study-set rows (model: %s)\n", model)
	r.printf("%-9s %-7s | %9s %9s | %7s | %s\n",
		"impl", "test", "auto[s]", "sat[s]", "a/sat", "router")
	for _, pair := range backendHarnessPairs {
		if r.Quick && !quickBackendPairs[pair.impl+"/"+pair.test] {
			continue
		}
		// Best of five per backend: these rows run tens of milliseconds,
		// where single samples carry enough scheduler noise to fake a
		// routing regression.
		run := func(opts core.Options) (*core.Result, error) {
			var best *core.Result
			for i := 0; i < 5; i++ {
				o := opts
				o.SpecCache = core.NewSpecCache("")
				res, err := core.Check(pair.impl, pair.test, o)
				if err != nil {
					return nil, err
				}
				if best == nil || solveSec(res) < solveSec(best) {
					best = res
				}
			}
			return best, nil
		}
		auto, err := run(core.Options{Model: model})
		if err != nil {
			return fmt.Errorf("bench: %s/%s (auto): %w", pair.impl, pair.test, err)
		}
		sat, err := run(core.Options{Model: model, Backend: core.BackendSAT})
		if err != nil {
			return fmt.Errorf("bench: %s/%s (sat): %w", pair.impl, pair.test, err)
		}
		if err := checkAgreement(Row{Impl: pair.impl, Test: pair.test, Res: auto},
			Row{Impl: pair.impl, Test: pair.test, Res: sat}); err != nil {
			return fmt.Errorf("sat backend disagrees: %w", err)
		}
		verdict := "pass"
		if !auto.Pass {
			verdict = "FAIL"
			if auto.SeqBug {
				verdict = "FAIL(seq)"
			}
		}
		row := BackendHarnessRow{
			Impl: pair.impl, Test: pair.test, Model: model.String(), Verdict: verdict,
			RouterDecision: auto.Stats.RouterDecision,
			AutoSec:        solveSec(auto),
			SATSec:         solveSec(sat),
		}
		if row.SATSec > 0 {
			row.AutoVsSAT = row.AutoSec / row.SATSec
		}
		if row.AutoVsSAT > art.MaxAutoVsSAT {
			art.MaxAutoVsSAT = row.AutoVsSAT
		}
		art.HarnessRows = append(art.HarnessRows, row)
		r.printf("%-9s %-7s | %9.3f %9.3f | %6.2fx | %s\n",
			row.Impl, row.Test, row.AutoSec, row.SATSec, row.AutoVsSAT, row.RouterDecision)
	}
	if len(art.HarnessRows) > 0 {
		r.printf("worst auto-vs-sat ratio: %.2fx\n", art.MaxAutoVsSAT)
	}

	if jsonPath != "" {
		data, err := json.MarshalIndent(&art, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		r.printf("wrote %s\n", jsonPath)
	}
	return nil
}
