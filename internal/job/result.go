package job

import "checkfence/internal/core"

// Result is the serializable answer to one check: PASS, or FAIL with
// its counterexample, or UNKNOWN with the budget trail that stopped
// it, or the error that kept it from running. Every surface renders
// from it: the daemon's NDJSON result lines and the CLI in both local
// and remote mode.
type Result struct {
	Impl    string `json:"impl"`
	Test    string `json:"test"`
	Model   string `json:"model"`
	Verdict string `json:"verdict,omitempty"` // "pass" | "fail" | "unknown"
	Pass    bool   `json:"pass"`
	SeqBug  bool   `json:"seq_bug,omitempty"`
	// Cex is the rendered counterexample trace (FAIL only).
	Cex string `json:"cex,omitempty"`
	// Error is set when the check failed to run (not a verdict).
	Error  string  `json:"error,omitempty"`
	Budget *Budget `json:"budget,omitempty"`
	Stats  *Stats  `json:"stats,omitempty"`
}

// Budget explains an UNKNOWN result: the configured budgets and the
// cause that stopped the check — the exhausted budget axis, or the
// error text when no budget was the cause.
type Budget struct {
	Deadline       string `json:"deadline,omitempty"`
	ConflictBudget int64  `json:"conflict_budget,omitempty"`
	Cause          string `json:"cause,omitempty"`
}

// Stats is the wire subset of core.Stats.
type Stats struct {
	ObsSetSize     int    `json:"obs_set_size,omitempty"`
	MineIterations int    `json:"mine_iterations,omitempty"`
	CNFVars        int    `json:"cnf_vars,omitempty"`
	CNFClauses     int    `json:"cnf_clauses,omitempty"`
	CacheHits      int    `json:"spec_cache_hits,omitempty"`
	CacheMisses    int    `json:"spec_cache_misses,omitempty"`
	SweepGroups    int    `json:"sweep_groups,omitempty"`
	EncodesReused  int    `json:"encodes_reused,omitempty"`
	TotalTime      string `json:"total_time,omitempty"`
}

// NewResult renders a core check result, or the error that kept the
// job from running, as its wire record. The job labels an error; a
// result labels itself.
func NewResult(j core.Job, res *core.Result, err error) Result {
	if err != nil {
		return Result{Impl: j.Impl, Test: j.Test, Model: j.Opts.Model.String(), Error: err.Error()}
	}
	r := Result{
		Impl: res.Impl, Test: res.Test, Model: res.Model.String(),
		Verdict: res.Verdict.String(), Pass: res.Pass, SeqBug: res.SeqBug,
	}
	if res.Cex != nil {
		r.Cex = res.Cex.String()
	}
	if b := res.Budget; b != nil {
		r.Budget = &Budget{ConflictBudget: b.ConflictBudget, Cause: b.Cause}
		if b.Deadline > 0 {
			r.Budget.Deadline = b.Deadline.String()
		}
	}
	st := res.Stats
	r.Stats = &Stats{
		ObsSetSize:     st.ObsSetSize,
		MineIterations: st.MineIterations,
		CNFVars:        st.CNFVars,
		CNFClauses:     st.CNFClauses,
		CacheHits:      st.SpecCacheHits,
		CacheMisses:    st.SpecCacheMisses,
		SweepGroups:    st.SweepGroups,
		EncodesReused:  st.EncodesReused,
		TotalTime:      st.TotalTime.String(),
	}
	return r
}
