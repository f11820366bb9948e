package bench

// This file measures the solver's inprocessing and the order-encoding
// reduction: the slowest inclusion-check rows of the study set run
// serially with both on (the default) and with both off, verifying
// identical verdicts and observation sets, and recording the
// solve-time speedups as the BENCH_solve.json artifact. The runs of a
// row execute back to back, never overlapped.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"checkfence/internal/core"
	"checkfence/internal/memmodel"
)

// solvePairs are the rows with the heaviest inclusion-check solves at
// the study bounds, in suite order.
var solvePairs = []struct{ impl, test string }{
	{"msn", "Tpc2"},
	{"msn", "Ti2"},
	{"ms2", "Tpc2"},
	{"lazylist", "Sac"},
	{"lazylist", "Sar"},
	{"harris", "Sac"},
	{"snark", "D0"},
}

// quickSolvePairs keeps -quick runs to the cheaper half.
var quickSolvePairs = map[string]bool{
	"msn/Tpc2":     true,
	"ms2/Tpc2":     true,
	"lazylist/Sac": true,
	"snark/D0":     true,
}

// SolveRow is one (implementation, test) measurement of the
// inprocessing comparison.
type SolveRow struct {
	Impl    string `json:"impl"`
	Test    string `json:"test"`
	Model   string `json:"model"`
	Verdict string `json:"verdict"`

	SerialSolveSec float64 `json:"serial_solve_sec"`
	// InprocOffSolveSec is the serial solve with inprocessing and the
	// order-encoding reduction both disabled — the pre-optimization
	// baseline the inproc_speedup column is measured against.
	InprocOffSolveSec float64 `json:"inproc_off_solve_sec"`
	// InprocSpeedup is inproc_off_solve_sec over serial_solve_sec.
	InprocSpeedup float64 `json:"inproc_speedup"`

	// ConflictsOn/ConflictsOff compare the serial search effort with
	// the features on vs. off.
	ConflictsOn  int64 `json:"conflicts_on"`
	ConflictsOff int64 `json:"conflicts_off"`

	// Inprocessing and order-reduction work of the default serial run.
	OrderVarsFixed  int   `json:"order_vars_fixed"`
	OrderVarsMerged int   `json:"order_vars_merged"`
	VivifiedLits    int64 `json:"vivified_lits"`
	SubsumedLearnts int64 `json:"subsumed_learnts"`
}

// SolveArtifact is the BENCH_solve.json schema.
type SolveArtifact struct {
	GeneratedAt         string     `json:"generated_at"`
	Model               string     `json:"model"`
	CPUs                int        `json:"cpus"`
	Rows                []SolveRow `json:"rows"`
	MedianInprocSpeedup float64    `json:"median_inproc_speedup"`
}

// SolveReport runs the slowest inclusion-check rows serially with
// inprocessing and the order reduction on and off; asserts that both
// agree (verdicts, observation sets, counterexample validity); prints
// the comparison; and writes the artifact to jsonPath ("" = print
// only).
func (r *Runner) SolveReport(jsonPath string) error {
	model := memmodel.Relaxed
	strategies := []struct {
		name string
		opts core.Options
	}{
		{"serial", core.Options{Model: model, Backend: core.BackendSAT}},
		{"inproc-off", core.Options{Model: model, Backend: core.BackendSAT, NoInprocess: true, NoOrderReduce: true}},
	}

	r.printf("Inprocessing and order reduction: solve time on vs off (model: %s)\n", model)
	r.printf("%-9s %-7s | %9s %9s | %6s | %s\n",
		"impl", "test", "serial[s]", "inoff[s]", "i-spd", "verdict")

	art := SolveArtifact{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Model:       model.String(),
		CPUs:        runtime.NumCPU(),
	}
	var iSpeedups []float64
	for _, pair := range solvePairs {
		if r.Quick && !quickSolvePairs[pair.impl+"/"+pair.test] {
			continue
		}
		// Each run mines with a private cache so neither configuration
		// benefits from the other's warm specification.
		rows := make([]Row, len(strategies))
		for i, strat := range strategies {
			opts := strat.opts
			opts.SpecCache = core.NewSpecCache("")
			res, err := core.Check(pair.impl, pair.test, opts)
			rows[i] = Row{Impl: pair.impl, Test: pair.test, Res: res, Err: err}
			if err != nil {
				return fmt.Errorf("bench: %s/%s (%s): %w", pair.impl, pair.test, strat.name, err)
			}
		}
		serial, inoff := rows[0], rows[1]
		if err := checkAgreement(serial, inoff); err != nil {
			return fmt.Errorf("inprocessing ablation disagrees: %w", err)
		}
		verdict := "pass"
		if !serial.Res.Pass {
			verdict = "FAIL"
			if serial.Res.SeqBug {
				verdict = "FAIL(seq)"
			}
		}
		row := SolveRow{
			Impl: pair.impl, Test: pair.test, Model: model.String(), Verdict: verdict,
			SerialSolveSec:    serial.Res.Stats.RefuteTime.Seconds(),
			InprocOffSolveSec: inoff.Res.Stats.RefuteTime.Seconds(),
			ConflictsOn:       serial.Res.Stats.SolverStats.Conflicts,
			ConflictsOff:      inoff.Res.Stats.SolverStats.Conflicts,
			OrderVarsFixed:    serial.Res.Stats.OrderVarsFixed,
			OrderVarsMerged:   serial.Res.Stats.OrderVarsMerged,
			VivifiedLits:      serial.Res.Stats.VivifiedLits,
			SubsumedLearnts:   serial.Res.Stats.SubsumedLearnts,
		}
		row.InprocSpeedup = speedup(row.InprocOffSolveSec, row.SerialSolveSec)
		art.Rows = append(art.Rows, row)
		iSpeedups = append(iSpeedups, row.InprocSpeedup)
		r.printf("%-9s %-7s | %9.3f %9.3f | %5.2fx | %s\n",
			row.Impl, row.Test, row.SerialSolveSec, row.InprocOffSolveSec, row.InprocSpeedup, verdict)
	}
	if len(art.Rows) > 0 {
		art.MedianInprocSpeedup = median(iSpeedups)
		r.printf("median inprocessing speedup: %.2fx\n", art.MedianInprocSpeedup)
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

// speedup is base over improved, 1 when improved took no time.
func speedup(base, improved float64) float64 {
	if improved <= 0 {
		return 1
	}
	return base / improved
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
