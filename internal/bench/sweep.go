package bench

// This file measures model-sweep grouping: the same model-matrix suite
// runs as one sweep group (one selector-guarded encoding per
// (impl, test), solved per model under assumptions) and as one
// single-model suite per model (every job its own pipeline), both on a
// single worker so wall-clock time compares work, not scheduling. Every row first asserts per-job
// verdict and observation-set agreement — a sweep that wins by
// answering differently is a soundness bug, not a speedup. The result
// is the BENCH_sweep.json artifact.

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"checkfence/internal/core"
	"checkfence/internal/memmodel"
)

// sweepModels is the model matrix every row checks: the four
// non-Serial models, strongest first.
var sweepModels = []memmodel.Model{
	memmodel.SequentialConsistency, memmodel.TSO,
	memmodel.PSO, memmodel.Relaxed,
}

// sweepPairs are the (implementation, test) rows; -quick keeps the
// cheap half.
var sweepPairs = []struct{ impl, test string }{
	{"ms2", "T0"},
	{"msn", "T0"},
	{"msn-nofence", "T0"},
	{"ms2-nofence", "T0"},
	{"lazylist", "Sac"},
	{"ms2", "Tpc2"},
	{"msn", "Tpc2"},
}

var quickSweepPairs = map[string]bool{
	"ms2/T0": true, "msn/T0": true, "msn-nofence/T0": true, "ms2-nofence/T0": true,
}

// SweepRow is one measurement: a model-matrix suite for one
// (implementation, test), swept vs independent.
type SweepRow struct {
	Impl   string   `json:"impl"`
	Test   string   `json:"test"`
	Models []string `json:"models"`
	// Verdicts holds one verdict per model, in Models order; identical
	// between the two modes by construction (enforced before timing is
	// reported).
	Verdicts   []string `json:"verdicts"`
	ObsSetSize int      `json:"obs_set_size"`
	// SweepSec and IndepSec are single-worker suite wall times (best of
	// reps).
	SweepSec float64 `json:"sweep_sec"`
	IndepSec float64 `json:"indep_sec"`
	Speedup  float64 `json:"speedup"`
	// SeededObs is the total number of observations the sweep's
	// non-leader members reused instead of re-encoding; EarlyExits
	// counts members decided by replaying a stronger model's
	// counterexample without a solve.
	SeededObs  int `json:"seeded_obs"`
	EarlyExits int `json:"early_exits"`
	// SelectorUnits is the number of guarded program-order axioms the
	// shared encoding carries on top of its weakest-model base.
	SelectorUnits int `json:"selector_units"`
}

// SweepArtifact is the BENCH_sweep.json schema.
type SweepArtifact struct {
	GeneratedAt string `json:"generated_at"`
	Host
	Models        []string   `json:"models"`
	Rows          []SweepRow `json:"rows"`
	MedianSpeedup float64    `json:"median_speedup"`
}

// runSweepSuite runs the model matrix for one pair on a single worker
// and returns the results plus the wall time. The swept arm is one
// suite, whose jobs form one sweep group; the independent arm is one
// single-model suite per model over one shared spec cache, so it too
// mines once.
func runSweepSuite(impl, test string, swept bool) ([]core.SuiteResult, float64, error) {
	jobs := make([]core.Job, len(sweepModels))
	for i, m := range sweepModels {
		jobs[i] = core.Job{Impl: impl, Test: test, Opts: core.Options{Model: m}}
	}
	start := time.Now()
	var results []core.SuiteResult
	if swept {
		results = core.RunSuite(jobs, core.SuiteOptions{Parallelism: 1})
	} else {
		cache := core.NewSpecCache("")
		for _, j := range jobs {
			results = append(results, core.RunSuite([]core.Job{j},
				core.SuiteOptions{Parallelism: 1, SpecCache: cache})...)
		}
	}
	wall := time.Since(start).Seconds()
	for i, r := range results {
		if r.Err != nil {
			return nil, 0, fmt.Errorf("bench: %s/%s on %s: %w", impl, test, sweepModels[i], r.Err)
		}
	}
	return results, wall, nil
}

// SweepReport measures model-sweep grouping, prints the comparison,
// and writes the artifact to jsonPath ("" = print only).
func (r *Runner) SweepReport(jsonPath string) error {
	art := SweepArtifact{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Host:        hostInfo(),
	}
	for _, m := range sweepModels {
		art.Models = append(art.Models, m.String())
	}

	r.printf("Model-sweep grouping: one shared encoding vs independent checks (%d models, 1 worker)\n",
		len(sweepModels))
	r.printf("%-12s %-7s | %9s %9s | %8s | %6s %5s | %s\n",
		"impl", "test", "sweep[s]", "indep[s]", "speedup", "seeded", "early", "verdicts")
	var speedups []float64
	for _, pair := range sweepPairs {
		if r.Quick && !quickSweepPairs[pair.impl+"/"+pair.test] {
			continue
		}
		const reps = 3
		var row SweepRow
		row.Impl, row.Test = pair.impl, pair.test
		for _, m := range sweepModels {
			row.Models = append(row.Models, m.String())
		}
		for rep := 0; rep < reps; rep++ {
			swept, sweepSec, err := runSweepSuite(pair.impl, pair.test, true)
			if err != nil {
				return err
			}
			indep, indepSec, err := runSweepSuite(pair.impl, pair.test, false)
			if err != nil {
				return err
			}
			verdicts := make([]string, len(swept))
			for i := range swept {
				a := Row{Impl: pair.impl, Test: pair.test, Res: swept[i].Res}
				b := Row{Impl: pair.impl, Test: pair.test, Res: indep[i].Res}
				if err := checkAgreement(a, b); err != nil {
					return fmt.Errorf("sweep disagrees with independent on %s: %w", sweepModels[i], err)
				}
				verdicts[i] = swept[i].Res.Verdict.String()
			}
			if rep == 0 || sweepSec < row.SweepSec {
				row.SweepSec = sweepSec
			}
			if rep == 0 || indepSec < row.IndepSec {
				row.IndepSec = indepSec
			}
			if rep == 0 {
				row.Verdicts = verdicts
				for _, sr := range swept {
					st := sr.Res.Stats
					row.SeededObs += st.SeededObs
					row.EarlyExits += st.SweepEarlyExit
					if st.SelectorUnits > row.SelectorUnits {
						row.SelectorUnits = st.SelectorUnits
					}
					if st.ObsSetSize > row.ObsSetSize {
						row.ObsSetSize = st.ObsSetSize
					}
				}
			}
		}
		row.Speedup = speedup(row.IndepSec, row.SweepSec)
		art.Rows = append(art.Rows, row)
		speedups = append(speedups, row.Speedup)
		r.printf("%-12s %-7s | %9.3f %9.3f | %7.2fx | %6d %5d | %v\n",
			row.Impl, row.Test, row.SweepSec, row.IndepSec, row.Speedup,
			row.SeededObs, row.EarlyExits, row.Verdicts)
	}
	art.MedianSpeedup = median(speedups)
	r.printf("median sweep speedup: %.2fx\n", art.MedianSpeedup)

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
