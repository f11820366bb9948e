// Command benchmark is the repository's end-to-end and per-layer
// benchmark. It runs one workload per process, checks every verdict
// against a committed expected table before it reports any timing, and
// prints its result as the last line of standard output:
//
//	bash benchmark/run.sh --workload fig10-relaxed --seed 1 --seconds 30 --trace 0
//	bash benchmark/run.sh --seed 1 -out run.json     # every workload, one child process each
//	bash benchmark/run.sh -compare parent/ change/   # label each metric against BENCHMARK.json
//
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
)

func main() {
	workload := flag.String("workload", "all", "workload to run, or all (one child process each)")
	seed := flag.Int64("seed", 1, "seed of the input order and request sequence")
	seconds := flag.Float64("seconds", 30, "how long the timed passes of one workload run")
	traceFlag := flag.Int("trace", 0, "1: after untraced reference passes, run one traced pass and report per-layer metrics")
	out := flag.String("out", "", "write the detailed report (metadata, spreads) to this file")
	spansOut := flag.String("spans", "", "traced runs: write the spans to this file")
	compare := flag.Bool("compare", false,
		"compare the run reports of two directories against BENCHMARK.json's bounds: -compare parent/ change/")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare needs two directories"))
		}
		worse, err := compareDirs(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		setups: 9, want: expectedTable()}
	if cfg.trace {
		cfg.setups = 1
	}
	if *workload == "all" {
		if err := runAll(cfg, *out, *spansOut); err != nil {
			fail(err)
		}
		return
	}
	rep, tr, err := run(cfg)
	if err != nil {
		rep.Error = err.Error()
	}
	if *out != "" {
		writeJSON(*out, rep)
	}
	if tr != nil && *spansOut != "" {
		self := map[string]float64{}
		tr.layerSelfMs(self)
		writeJSON(*spansOut, map[string]any{"workload": rep.Workload, "spans": tr.spans,
			"self_ms": self, "tracing_overhead_ratio": rep.Metrics["tracing.overhead_ratio"].Value})
	}
	if err != nil {
		// A run without a full, correct set of verdicts reports no metric.
		rep.resultLine.Metrics = map[string]metricOut{}
		printLine(rep.resultLine)
		fail(err)
	}
	printSummary(rep)
	printLine(rep.resultLine)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func printLine(l resultLine) {
	b, err := json.Marshal(l)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func writeJSON(path string, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fail(err)
	}
}

// printSummary writes a readable table of the metrics to stderr.
func printSummary(rep *report) {
	defs := endToEnd
	if rep.Meta.Trace {
		defs = perLayer
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d passes, %d attempted, %d failed\n",
		rep.Workload, rep.Meta.Seed, rep.Meta.Passes, rep.Attempted, rep.Failed)
	for _, d := range defs {
		m := rep.Metrics[d.name]
		line := fmt.Sprintf("  %-28s %14.4f %s", d.name, m.Value, m.Unit)
		if s, ok := rep.Spread[d.name]; ok && s.N > 1 {
			line += fmt.Sprintf("   (q1 %.4f  q3 %.4f  n %d)", s.Q1, s.Q3, s.N)
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

func newMeta(cfg config) meta {
	m := meta{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Seed: cfg.seed,
		Seconds: cfg.seconds, Setups: cfg.setups, Trace: cfg.trace}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				m.Modified = s.Value == "true"
			}
		}
	}
	return m
}

// runAll runs every workload in its own child process, so caches, GC
// state and peak RSS stay separate, and gathers their reports.
func runAll(cfg config, out, spansOut string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "checkfence-benchmark")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	combined := struct {
		Meta meta      `json:"meta"`
		Runs []*report `json:"runs"`
	}{Meta: newMeta(cfg)}
	failed := false
	for _, w := range workloadNames {
		path := filepath.Join(dir, w+".json")
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		args := []string{"-workload", w, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace, "-out", path}
		if spansOut != "" {
			args = append(args, "-spans", spansOut+"."+w+".json")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: workload %s: %v\n", w, err)
			failed = true
		}
		rep := &report{}
		b, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("workload %s wrote no report: %w", w, err)
		}
		if err := json.Unmarshal(b, rep); err != nil {
			return fmt.Errorf("workload %s report: %w", w, err)
		}
		combined.Runs = append(combined.Runs, rep)
	}
	if out != "" {
		writeJSON(out, combined)
	}
	if failed {
		return fmt.Errorf("at least one workload failed")
	}
	return nil
}
