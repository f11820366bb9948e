package bench

// This file measures the checking-as-a-service path: the same
// model-matrix suite submitted to an in-process checkfenced server
// over HTTP vs run directly through core.RunSuite, both on one
// worker. Every row first asserts per-model verdict agreement — a
// service that answers differently from the library is a correctness
// bug, not an overhead figure. The result is the BENCH_daemon.json
// artifact: per-pair wall times and the service's protocol overhead
// (serialization, HTTP, NDJSON streaming) over the direct path.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"checkfence/internal/daemon"
)

// daemonPairs are the (implementation, test) rows; -quick keeps the
// cheap half.
var daemonPairs = []struct{ impl, test string }{
	{"ms2", "T0"},
	{"msn", "T0"},
	{"ms2-nofence", "T0"},
	{"msn-nofence", "T0"},
	{"ms2", "Tpc2"},
	{"lazylist", "Sac"},
}

var quickDaemonPairs = map[string]bool{
	"ms2/T0": true, "msn/T0": true, "ms2-nofence/T0": true,
}

// DaemonRow is one measurement: a model-matrix batch for one
// (implementation, test), served over HTTP vs run directly.
type DaemonRow struct {
	Impl   string   `json:"impl"`
	Test   string   `json:"test"`
	Models []string `json:"models"`
	// Verdicts holds one verdict per model, in Models order; identical
	// between the two paths by construction.
	Verdicts []string `json:"verdicts"`
	// HTTPSec and DirectSec are single-worker wall times (best of
	// reps); OverheadMs is their difference — the protocol cost.
	HTTPSec    float64 `json:"http_sec"`
	DirectSec  float64 `json:"direct_sec"`
	OverheadMs float64 `json:"overhead_ms"`
}

// DaemonArtifact is the BENCH_daemon.json schema.
type DaemonArtifact struct {
	GeneratedAt string `json:"generated_at"`
	Host
	Models           []string    `json:"models"`
	Rows             []DaemonRow `json:"rows"`
	MedianOverheadMs float64     `json:"median_overhead_ms"`
}

// postDaemonBatch submits one model-matrix batch and returns the
// verdict per model (request order) plus the wall time.
func postDaemonBatch(url, impl, test string, models []string) ([]string, float64, error) {
	req := map[string]any{
		"jobs": []map[string]any{{
			"program": map[string]any{"name": impl},
			"test":    test,
			"models":  models,
		}},
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := http.Post(url+"/v1/check", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("bench: daemon %s/%s: %s", impl, test, resp.Status)
	}
	verdicts := make([]string, len(models))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Type    string `json:"type"`
			Index   int    `json:"index"`
			Verdict string `json:"verdict"`
			Error   string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, 0, err
		}
		if line.Type != "result" {
			continue
		}
		if line.Error != "" {
			return nil, 0, fmt.Errorf("bench: daemon %s/%s[%d]: %s", impl, test, line.Index, line.Error)
		}
		verdicts[line.Index] = line.Verdict
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	wall := time.Since(start).Seconds()
	for i, v := range verdicts {
		if v == "" {
			return nil, 0, fmt.Errorf("bench: daemon %s/%s: no verdict for model %s", impl, test, models[i])
		}
	}
	return verdicts, wall, nil
}

// DaemonReport measures the HTTP service path against direct library
// checks, prints the comparison, and writes the artifact to jsonPath
// ("" = print only).
func (r *Runner) DaemonReport(jsonPath string) error {
	art := DaemonArtifact{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Host:        hostInfo(),
	}
	models := make([]string, len(sweepModels))
	for i, m := range sweepModels {
		models[i] = m.String()
	}
	art.Models = models

	r.printf("Checking as a service: HTTP batch vs direct suite (%d models, 1 worker)\n", len(models))
	r.printf("%-12s %-7s | %9s %9s | %9s | %s\n",
		"impl", "test", "http[s]", "direct[s]", "overhead", "verdicts")
	var overheads []float64
	for _, pair := range daemonPairs {
		if r.Quick && !quickDaemonPairs[pair.impl+"/"+pair.test] {
			continue
		}
		const reps = 3
		var row DaemonRow
		row.Impl, row.Test, row.Models = pair.impl, pair.test, models
		for rep := 0; rep < reps; rep++ {
			// A fresh server per rep: the service must pay its own
			// mining, not reuse a previous rep's cache.
			srv := daemon.NewServer(daemon.Config{Parallelism: 1})
			ts := httptest.NewServer(srv)
			httpVerdicts, httpSec, err := postDaemonBatch(ts.URL, pair.impl, pair.test, models)
			ts.Close()
			if err != nil {
				return err
			}
			direct, directSec, err := runSweepSuite(pair.impl, pair.test, true)
			if err != nil {
				return err
			}
			for i := range direct {
				if want := direct[i].Res.Verdict.String(); httpVerdicts[i] != want {
					return fmt.Errorf("bench: daemon disagrees with direct on %s/%s %s: %s vs %s",
						pair.impl, pair.test, models[i], httpVerdicts[i], want)
				}
			}
			if rep == 0 || httpSec < row.HTTPSec {
				row.HTTPSec = httpSec
			}
			if rep == 0 || directSec < row.DirectSec {
				row.DirectSec = directSec
			}
			if rep == 0 {
				row.Verdicts = httpVerdicts
			}
		}
		row.OverheadMs = (row.HTTPSec - row.DirectSec) * 1000
		art.Rows = append(art.Rows, row)
		overheads = append(overheads, row.OverheadMs)
		r.printf("%-12s %-7s | %9.3f %9.3f | %7.1fms | %v\n",
			row.Impl, row.Test, row.HTTPSec, row.DirectSec, row.OverheadMs, row.Verdicts)
	}
	art.MedianOverheadMs = median(overheads)
	r.printf("median service overhead: %.1fms per %d-model batch\n", art.MedianOverheadMs, len(models))

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
