package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// boundDef is an end-to-end metric of BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]boundDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []boundDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// runValues maps workload -> metric -> one value per run.
type runValues map[string]map[string][]float64

func (rv runValues) add(rep *report) {
	if rep.Workload == "" || rep.Meta.Trace || rep.Error != "" {
		return
	}
	if rv[rep.Workload] == nil {
		rv[rep.Workload] = map[string][]float64{}
	}
	for name, m := range rep.Metrics {
		rv[rep.Workload][name] = append(rv[rep.Workload][name], m.Value)
	}
}

// loadRuns reads every untraced report in dir: single-workload reports
// (-workload W -out) and combined ones (-workload all -out).
func loadRuns(dir string) (runValues, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	rv := runValues{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f struct {
			report
			Runs []*report `json:"runs"`
		}
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		rv.add(&f.report)
		for _, r := range f.Runs {
			rv.add(r)
		}
	}
	if len(rv) == 0 {
		return nil, fmt.Errorf("%s: no untraced run reports", dir)
	}
	return rv, nil
}

// spreadShare is the distance between the first and third quartile as
// a share of the median.
func spreadShare(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return (cutPoint(xs, 3, 4) - cutPoint(xs, 1, 4)) / m
}

// label classifies the change's runs of one metric against the
// parent's. A metric whose run-to-run spread is wider than its bound is
// unresolved, unless every change run beats every parent run.
func label(parent, change []float64, d boundDef) (string, float64) {
	lower := d.Better != "higher"
	pm, cm := median(parent), median(change)
	rel := (cm - pm) / pm // > 0: the change reads higher
	worse := rel
	if !lower {
		worse = -rel
	}
	beatsAll := true
	for _, c := range change {
		for _, p := range parent {
			if (lower && c >= p) || (!lower && c <= p) {
				beatsAll = false
			}
		}
	}
	switch {
	case beatsAll:
		return "better", rel
	case max(spreadShare(parent), spreadShare(change)) > d.Bound:
		return "unresolved", rel
	case worse > d.Bound:
		return "worse", rel
	case worse < -d.Bound:
		return "better", rel
	}
	return "unchanged", rel
}

// compareDirs prints one row per workload and reports whether any
// metric got worse.
func compareDirs(w io.Writer, benchJSON, parentDir, changeDir string) (bool, error) {
	bounds, err := readBounds(benchJSON)
	if err != nil {
		return false, err
	}
	parent, err := loadRuns(parentDir)
	if err != nil {
		return false, err
	}
	change, err := loadRuns(changeDir)
	if err != nil {
		return false, err
	}
	var workloads []string
	for wl := range parent {
		if _, ok := change[wl]; ok {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	header := []string{fmt.Sprintf("%-14s", "workload")}
	for _, d := range bounds {
		header = append(header, fmt.Sprintf("%-24s", d.Name))
	}
	fmt.Fprintln(w, strings.Join(header, " "))
	anyWorse := false
	for _, wl := range workloads {
		row := []string{fmt.Sprintf("%-14s", wl)}
		for _, d := range bounds {
			p, c := parent[wl][d.Name], change[wl][d.Name]
			cell := "missing"
			if len(p) > 0 && len(c) > 0 {
				l, rel := label(p, c, d)
				anyWorse = anyWorse || l == "worse"
				cell = fmt.Sprintf("%s %+.1f%% (%d/%d)", l, 100*rel, len(p), len(c))
			}
			row = append(row, fmt.Sprintf("%-24s", cell))
		}
		fmt.Fprintln(w, strings.Join(row, " "))
	}
	return anyWorse, nil
}
