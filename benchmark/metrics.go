package main

// metricDef is a metric the benchmark prints; BENCHMARK.json lists the
// same names and units, with the bounds (a test keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd are the user-visible metrics of an untraced run. Times are
// scaled to the reference host (see calibrate).
var endToEnd = []metricDef{
	{"wall_s", "s"},            // median wall time of one pass
	{"check_geomean_ms", "ms"}, // geometric mean over inputs of each input's median time to verdict
	{"alloc_mb", "MB"},         // median heap bytes allocated per pass
	{"peak_rss_mb", "MB"},      // VmHWM of the process
	{"setup_s", "s"},           // median time of one set-up: inputs, expected table, daemon, warm-up
}

// perLayer are the traced run's metrics. "_ms" metrics are span self
// times summed over the traced pass unless marked otherwise; counts are
// summed over the pass's checks.
var perLayer = []metricDef{
	{"cparse.parse_ms", "ms"},
	{"ctrans.translate_ms", "ms"},
	{"harness.build_ms", "ms"}, // includes harness.Build's own parse and translate
	{"unroll.unroll_ms", "ms"},
	{"unroll.instrs", "count"},
	{"unroll.accesses", "count"},
	{"ranges.analyze_ms", "ms"},
	{"core.bound_rounds", "count"},
	{"sat.probe_solve_ms", "ms"},
	{"encode.encode_ms", "ms"},
	{"encode.gates", "count"},
	{"encode.cnf_vars", "count"},
	{"encode.cnf_clauses", "count"},
	{"sat.preprocess_ms", "ms"},            // solver counter of the inclusion solve, inside spec.inclusion_ms
	{"sat.preprocess_keep_ratio", "ratio"}, // inclusion clauses after ÷ before preprocessing
	{"spec.mine_ms", "ms"},
	{"spec.mine_iterations", "count"},
	{"spec.obs_set_size", "count"},
	{"spec.inclusion_ms", "ms"},
	{"sat.conflicts", "count"},
	{"sat.propagations", "count"},
	{"sat.decisions", "count"},
	{"trace.build_ms", "ms"},
	{"validate.check_ms", "ms"},
	{"rf.scan_ms", "ms"},
	{"rf.check_ms", "ms"},
	{"rf.execs", "count"},
	{"rf.steps", "count"},
	{"core.spec_cache_hit_ratio", "ratio"},
	{"core.sweep_early_exit_ratio", "ratio"},
	{"core.sweep_seeded_obs", "count"},
	{"core.worker_busy_ratio", "ratio"},     // Σ check time ÷ (wall × 2 workers)
	{"daemon.ttfb_ms", "ms"},                // median over requests: time to the first NDJSON line
	{"daemon.overhead_ms", "ms"},            // median over requests: latency − slowest job's total_time
	{"tracing.overhead_ratio", "ratio"},     // traced pass wall ÷ untraced pass wall − 1
	{"tracing.unattributed_ratio", "ratio"}, // check time no layer span covers ÷ check time
}

// metricOut is one printed metric.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints on standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report is the detailed record of one workload run (-out).
type report struct {
	Workload string `json:"workload"`
	Meta     meta   `json:"meta"`
	resultLine
	// Spread gives, per metric, the distribution of the samples its
	// value summarizes (passes, checks, requests or set-ups).
	Spread map[string]summary `json:"spread,omitempty"`
	// Measured gives wall_s and check_geomean_ms as measured, without
	// scaling to the reference host, and the kernel's median time.
	Measured map[string]float64 `json:"measured,omitempty"`
	// PassWalls lists the timed passes' wall times as measured, in run
	// order, s.
	PassWalls []float64 `json:"pass_walls,omitempty"`
	// WorstUnattributed is the worst single check's share of time no layer
	// span covers (traced runs).
	WorstUnattributed float64 `json:"worst_unattributed,omitempty"`
	Error             string  `json:"error,omitempty"`
}

// meta describes where and how a run was made.
type meta struct {
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Modified   bool    `json:"modified,omitempty"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Passes     int     `json:"passes"`
	Setups     int     `json:"setups"`
	Trace      bool    `json:"trace"`
}
