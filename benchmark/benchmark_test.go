package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// tiny is the small variant of a workload run: one pass over the first
// two inputs (ten requests for service-mix), one set-up.
func tiny(workload string, trace bool, want map[inputKey]string) config {
	limit := 2
	if workload == "service-mix" {
		limit = 10
	}
	return config{workload: workload, seed: 1, seconds: 1, trace: trace, setups: 1,
		limit: limit, passes: 1, want: want}
}

func readBenchmarkJSON(t *testing.T) (e2e, layers []metricDef) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	return e2e, layers
}

// TestEveryMetricPrinted runs the tiny variant of every workload,
// untraced and traced, and checks that each prints exactly the metrics
// BENCHMARK.json names, with their units.
func TestEveryMetricPrinted(t *testing.T) {
	e2e, layers := readBenchmarkJSON(t)
	if !reflect.DeepEqual(e2e, endToEnd) || !reflect.DeepEqual(layers, perLayer) {
		t.Fatal("BENCHMARK.json metrics differ from the ones the benchmark prints")
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			rep, _, err := run(tiny(w, trace, expectedTable()))
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w, trace, err)
			}
			defs := e2e
			if trace {
				defs = layers
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s (trace %v): %d metrics, want %d", w, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s (trace %v): metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
			}
			if !rep.Correct || rep.Attempted == 0 || rep.Failed != 0 {
				t.Errorf("%s (trace %v): correct %v, attempted %d, failed %d",
					w, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
		}
	}
}

// TestExpectedCoversInputs checks that every input any workload can
// generate has a committed verdict.
func TestExpectedCoversInputs(t *testing.T) {
	g := newGate(expectedTable())
	for _, rows := range [][]inputKey{fig10Rows, fenceBugRows, sweepRows(), serviceRows()} {
		if err := g.cover(rows); err != nil {
			t.Error(err)
		}
	}
}

// TestGateTripsOnWrongExpectation plants a wrong verdict and expects
// the run to fail without reporting metrics.
func TestGateTripsOnWrongExpectation(t *testing.T) {
	want := expectedTable()
	want[fig10Rows[0]] = vFail // ms2/T0 passes on Relaxed
	rep, _, err := run(tiny("fig10-relaxed", false, want))
	if err == nil || !strings.Contains(err.Error(), "verdict mismatch") {
		t.Fatalf("planted mismatch not caught: %v", err)
	}
	if rep.Correct || len(rep.Metrics) != 0 {
		t.Errorf("a mismatching run reported correct=%v with %d metrics", rep.Correct, len(rep.Metrics))
	}
}

func TestRequestListSeeded(t *testing.T) {
	a, b := requestList(1, 0, 0), requestList(1, 0, 0)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different request lists")
	}
	if reflect.DeepEqual(a, requestList(2, 0, 0)) {
		t.Error("different seeds gave the same request list")
	}
	litmus := 0
	for _, k := range a {
		if k >= len(serviceRegistry) {
			litmus++
		}
	}
	if 3*litmus != len(a)-litmus {
		t.Errorf("%d litmus requests of %d: want the 3:1 mix", litmus, len(a))
	}
}

func TestCompareRule(t *testing.T) {
	lower := boundDef{Name: "wall_s", Better: "lower", Bound: 0.1}
	higher := boundDef{Name: "rate", Better: "higher", Bound: 0.1}
	parent := []float64{10, 10.1, 9.9, 10.05, 9.95}
	cases := []struct {
		def    boundDef
		change []float64
		want   string
	}{
		{lower, []float64{10.2, 9.8, 10.1, 9.9, 10}, "unchanged"},
		{lower, []float64{12, 11.9, 12.1, 12, 11.95}, "worse"},
		{lower, []float64{9.6, 9.7, 9.5, 9.6, 9.65}, "better"}, // every run beats every parent run
		{lower, []float64{8, 12, 10, 14, 6}, "unresolved"},     // spread wider than the bound
		{higher, []float64{12, 11.9, 12.1, 12, 11.95}, "better"},
		{higher, []float64{8.5, 8.6, 8.4, 8.7, 8.5}, "worse"},
	}
	for i, c := range cases {
		if got, _ := label(parent, c.change, c.def); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}

func TestCutPointMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	got := []float64{cutPoint(xs, 1, 4), cutPoint(xs, 2, 4), cutPoint(xs, 3, 4)}
	if !reflect.DeepEqual(got, []float64{2.75, 5.5, 8.25}) {
		t.Errorf("quartiles %v", got)
	}
}
