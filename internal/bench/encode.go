package bench

// This file measures the formula-minimization layer: every suite
// check runs twice — once with the full pipeline (AIG rewriting,
// polarity-aware encoding, CNF preprocessing) and once with all of it
// disabled — verifying identical verdicts and observation sets, and
// recording formula sizes and solve times as the BENCH_encode.json
// artifact.

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"checkfence/internal/core"
	"checkfence/internal/encode"
	"checkfence/internal/memmodel"
)

// EncodeRow is one (implementation, test) measurement of the
// minimization comparison.
type EncodeRow struct {
	Impl    string `json:"impl"`
	Test    string `json:"test"`
	Model   string `json:"model"`
	Verdict string `json:"verdict"`

	// Minimized run.
	Gates      int     `json:"gates"`
	Vars       int     `json:"vars"`
	Clauses    int     `json:"clauses"`
	PreVars    int     `json:"pre_vars"`    // before CNF preprocessing
	PreClauses int     `json:"pre_clauses"` // before CNF preprocessing
	EncodeSec  float64 `json:"encode_sec"`
	PrepSec    float64 `json:"preprocess_sec"` // included in solve_sec
	SolveSec   float64 `json:"solve_sec"`
	TotalSec   float64 `json:"total_sec"`

	// Unminimized run (classic Tseitin, no rewriting, no
	// preprocessing).
	PlainGates     int     `json:"plain_gates"`
	PlainVars      int     `json:"plain_vars"`
	PlainClauses   int     `json:"plain_clauses"`
	PlainEncodeSec float64 `json:"plain_encode_sec"`
	PlainSolveSec  float64 `json:"plain_solve_sec"`
	PlainTotalSec  float64 `json:"plain_total_sec"`

	// ClauseReduction is 1 - clauses/plain_clauses.
	ClauseReduction float64 `json:"clause_reduction"`
}

// EncodeArtifact is the BENCH_encode.json schema.
type EncodeArtifact struct {
	GeneratedAt string `json:"generated_at"`
	Model       string `json:"model"`
	Host
	Rows            []EncodeRow `json:"rows"`
	RowsAtLeast20   int         `json:"rows_at_least_20pct"`
	MeanReductionPc float64     `json:"mean_reduction_pct"`
}

// EncodeReport runs the suite with minimization on and off, asserts
// agreement (verdicts, observation sets, counterexample validity),
// prints the comparison, and writes the artifact to jsonPath ("" =
// print only). An agreement violation is an error: the minimization
// layer must be semantically invisible.
func (r *Runner) EncodeReport(jsonPath string) error {
	model := memmodel.Relaxed
	// (on, off) job pairs. Each job carries a private observation-set
	// cache so mining runs (and is timed) in both configurations. The
	// plain configuration is classic Tseitin without preprocessing.
	plain := &encode.Config{Inprocess: true, OrderReduce: true}
	var jobs []core.Job
	for _, impl := range Impls {
		for _, test := range r.TestsFor(impl) {
			jobs = append(jobs,
				core.Job{Impl: impl, Test: test,
					Opts: core.Options{Model: model,
						SpecCache: core.NewSpecCache("")}},
				core.Job{Impl: impl, Test: test,
					Opts: core.Options{Model: model,
						Encode:    plain,
						SpecCache: core.NewSpecCache("")}})
		}
	}
	rows := r.runSuite(jobs, nil)

	r.printf("Formula minimization: CNF size and solve time, minimized vs. plain (model: %s)\n", model)
	r.printf("%-9s %-7s | %9s %10s %10s | %10s | %6s | %9s %9s | %s\n",
		"impl", "test", "gates", "pre-cls", "clauses", "plain-cls", "red.", "solve[s]", "plain[s]", "verdict")

	art := EncodeArtifact{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Model:       model.String(),
		Host:        hostInfo(),
	}
	var sumRed float64
	for i := 0; i+1 < len(rows); i += 2 {
		on, off := rows[i], rows[i+1]
		if on.Err != nil || off.Err != nil {
			return fmt.Errorf("bench: %s/%s: on err=%v, off err=%v", on.Impl, on.Test, on.Err, off.Err)
		}
		if err := checkAgreement(on, off); err != nil {
			return err
		}
		s, p := on.Res.Stats, off.Res.Stats
		verdict := "pass"
		if !on.Res.Pass {
			verdict = "FAIL"
			if on.Res.SeqBug {
				verdict = "FAIL(seq)"
			}
		}
		red := 0.0
		if p.CNFClauses > 0 {
			red = 1 - float64(s.CNFClauses)/float64(p.CNFClauses)
		}
		row := EncodeRow{
			Impl: on.Impl, Test: on.Test, Model: model.String(), Verdict: verdict,
			Gates: s.Gates, Vars: s.CNFVars, Clauses: s.CNFClauses,
			PreVars: s.PreCNFVars, PreClauses: s.PreCNFClauses,
			EncodeSec: s.EncodeTime.Seconds(), PrepSec: s.PreprocessTime.Seconds(),
			SolveSec:   s.RefuteTime.Seconds(),
			TotalSec:   s.TotalTime.Seconds(),
			PlainGates: p.Gates, PlainVars: p.CNFVars, PlainClauses: p.CNFClauses,
			PlainEncodeSec: p.EncodeTime.Seconds(), PlainSolveSec: p.RefuteTime.Seconds(),
			PlainTotalSec:   p.TotalTime.Seconds(),
			ClauseReduction: red,
		}
		art.Rows = append(art.Rows, row)
		sumRed += red
		if red >= 0.20 {
			art.RowsAtLeast20++
		}
		r.printf("%-9s %-7s | %9d %10d %10d | %10d | %5.1f%% | %9.3f %9.3f | %s\n",
			row.Impl, row.Test, row.Gates, row.PreClauses, row.Clauses,
			row.PlainClauses, 100*red, row.SolveSec, row.PlainSolveSec, verdict)
	}
	if len(art.Rows) > 0 {
		art.MeanReductionPc = 100 * sumRed / float64(len(art.Rows))
		r.printf("mean clause reduction: %.1f%%; rows with >= 20%%: %d/%d\n",
			art.MeanReductionPc, art.RowsAtLeast20, len(art.Rows))
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

// checkAgreement asserts that the minimized and plain runs of one
// check are observationally identical.
func checkAgreement(on, off Row) error {
	where := fmt.Sprintf("bench: %s/%s", on.Impl, on.Test)
	if on.Res.Pass != off.Res.Pass || on.Res.SeqBug != off.Res.SeqBug {
		return fmt.Errorf("%s: verdicts differ: minimized pass=%v seqbug=%v, plain pass=%v seqbug=%v",
			where, on.Res.Pass, on.Res.SeqBug, off.Res.Pass, off.Res.SeqBug)
	}
	if (on.Res.Spec == nil) != (off.Res.Spec == nil) {
		return fmt.Errorf("%s: one run has an observation set, the other does not", where)
	}
	if on.Res.Spec != nil && !on.Res.Spec.Equal(off.Res.Spec) {
		return fmt.Errorf("%s: observation sets differ (%d vs %d observations)",
			where, on.Res.Spec.Len(), off.Res.Spec.Len())
	}
	for _, run := range []Row{on, off} {
		res := run.Res
		if res.Pass || res.Cex == nil {
			continue
		}
		// A non-error counterexample must be a genuinely new
		// observation (outside the mined set).
		if !res.Cex.IsErr && res.Spec != nil && res.Spec.Has(res.Cex.Observation) {
			return fmt.Errorf("%s: counterexample observation is inside the specification", where)
		}
	}
	return nil
}
