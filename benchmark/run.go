package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// config is one workload run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int // times set-up is repeated; setup_s is their median
	// limit > 0 cuts the inputs (requests, for service-mix) of a pass
	// to that many, and passes > 0 fixes the number of timed passes:
	// the tiny variant the tests run.
	limit  int
	passes int
	want   map[inputKey]string
}

// sample is one time to verdict, keyed by input (or request kind).
type sample struct {
	key   string
	ms    float64
	scale float64 // calibrate's factor for the unit the sample was timed in
}

// passOut is what one pass over a workload's inputs produced.
type passOut struct {
	wall      float64 // s, the timed units together
	norm      float64 // s, the same scaled to the reference host
	allocMB   float64 // heap allocated by the timed units
	lat       []sample
	attempted int
	failed    int
}

// add counts one timed unit into the pass.
func (p *passOut) add(ms, scale, allocMB float64) {
	p.wall += ms / 1e3
	p.norm += ms * scale / 1e3
	p.allocMB += allocMB
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	rows() []inputKey // every input the expected table must cover
	procs() int       // GOMAXPROCS the workload runs with
	setup() error     // build inputs and warm up; repeatable
	pass(i int) (passOut, error)
	// traced replays pass i with spans and adds layer counts to acc.
	traced(i int, tr *tracer, acc map[string]float64) (passOut, error)
	close()
}

var workloadNames = []string{"fig10-relaxed", "fence-bugs", "model-sweep", "service-mix"}

func newWorkload(cfg config, g *gate) (workload, error) {
	switch cfg.workload {
	case "fig10-relaxed":
		return &checkWorkload{cfg: cfg, g: g, all: fig10Rows, reps: fig10Reps}, nil
	case "fence-bugs":
		return &checkWorkload{cfg: cfg, g: g, all: fenceBugRows}, nil
	case "model-sweep":
		return &sweepWorkload{cfg: cfg, g: g}, nil
	case "service-mix":
		return &serviceWorkload{cfg: cfg, g: g}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

// cut applies the tiny variant's input limit.
func cut[T any](rows []T, limit int) []T {
	if limit > 0 && limit < len(rows) {
		return rows[:limit]
	}
	return rows
}

// run executes one workload and returns its report. A verdict
// mismatch or an input the expected table does not cover is an error:
// no metric of such a run is reported.
func run(cfg config) (*report, *tracer, error) {
	rep := &report{Workload: cfg.workload, Meta: newMeta(cfg)}
	rep.Metrics = map[string]metricOut{}
	rep.Spread = map[string]summary{}
	g := newGate(cfg.want)
	w, err := newWorkload(cfg, g)
	if err != nil {
		return rep, nil, err
	}
	defer w.close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs()))
	rep.Meta.GOMAXPROCS = w.procs()
	if err := g.cover(w.rows()); err != nil {
		return rep, nil, err
	}

	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		ms, scale, _ := timed(func() { err = w.setup() })
		if err != nil {
			return rep, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, ms*scale/1e3)
	}

	var passes []passOut
	measureStart := time.Now()
	// A traced run spends half its time on untraced passes: they give
	// the traced pass its reference answers and its overhead baseline.
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	var elapsed []float64 // s, whole passes with their calibrations
	for i := 0; ; i++ {
		if cfg.passes > 0 && i == cfg.passes {
			break
		}
		if cfg.passes == 0 && i > 0 && time.Since(measureStart).Seconds()+median(elapsed) > budget {
			break
		}
		t0 := time.Now()
		p, err := w.pass(i)
		if err != nil {
			return rep, nil, fmt.Errorf("pass %d: %w", i, err)
		}
		passes = append(passes, p)
		elapsed = append(elapsed, time.Since(t0).Seconds())
	}
	peakMB := peakRSSMB()
	rep.Meta.Passes = len(passes)
	for _, p := range passes {
		rep.PassWalls = append(rep.PassWalls, p.wall)
		rep.Attempted += p.attempted
		rep.Failed += p.failed
	}

	var tr *tracer
	var tp passOut
	acc := map[string]float64{}
	if cfg.trace {
		tr = newTracer()
		if tp, err = w.traced(len(passes), tr, acc); err != nil {
			return rep, tr, fmt.Errorf("traced pass: %w", err)
		}
		rep.Attempted += tp.attempted
		rep.Failed += tp.failed
	}
	if err := g.err(); err != nil {
		return rep, tr, err
	}
	if cfg.trace {
		layerMetrics(rep, tr, acc, passes, tp)
	} else {
		endToEndMetrics(rep, passes, setups, peakMB)
	}
	rep.Correct = true
	return rep, tr, nil
}

func (r *report) set(name, unit string, v float64, xs []float64) {
	r.Metrics[name] = metricOut{Value: v, Unit: unit}
	if xs != nil {
		r.Spread[name] = summarize(xs)
	}
}

// perKey summarizes each input's times over the passes with stat,
// scaled to the reference host or as measured.
func perKey(passes []passOut, stat func([]float64) float64, scaled bool) map[string]float64 {
	byKey := map[string][]float64{}
	for _, p := range passes {
		for _, s := range p.lat {
			v := s.ms
			if scaled {
				v *= s.scale
			}
			byKey[s.key] = append(byKey[s.key], v)
		}
	}
	out := map[string]float64{}
	for k, xs := range byKey {
		out[k] = stat(xs)
	}
	return out
}

func values(m map[string]float64) []float64 {
	var xs []float64
	for _, x := range m {
		xs = append(xs, x)
	}
	return xs
}

// endToEndMetrics reports medians of times scaled to the reference host;
// the report keeps them as measured too.
func endToEndMetrics(rep *report, passes []passOut, setups []float64, peakMB float64) {
	var walls, norms, allocs, scales []float64
	for _, p := range passes {
		walls = append(walls, p.wall)
		norms = append(norms, p.norm)
		allocs = append(allocs, p.allocMB)
		for _, s := range p.lat {
			scales = append(scales, s.scale)
		}
	}
	times := values(perKey(passes, median, true))
	rep.set("wall_s", "s", median(norms), norms)
	rep.set("check_geomean_ms", "ms", geomean(times), times)
	rep.set("alloc_mb", "MB", median(allocs), allocs)
	rep.set("peak_rss_mb", "MB", peakMB, nil)
	rep.set("setup_s", "s", median(setups), setups)
	rep.Measured = map[string]float64{
		"wall_s":           median(walls),
		"check_geomean_ms": geomean(values(perKey(passes, median, false))),
		"calibration_ms":   referenceMs / median(scales),
	}
}

// layerMetrics reports the traced pass. Tracing overhead compares each
// input's traced time with its median untraced time.
func layerMetrics(rep *report, tr *tracer, acc map[string]float64, passes []passOut, traced passOut) {
	self := map[string]float64{}
	tr.layerSelfMs(self)
	if pre := acc["pre_clauses"]; pre > 0 {
		acc["sat.preprocess_keep_ratio"] = acc["encode.cnf_clauses"] / pre
	}
	untraced, tracedMs := perKey(passes, median, true), perKey([]passOut{traced}, median, true)
	var sumU, sumT float64
	for k, t := range tracedMs {
		sumU += untraced[k]
		sumT += t
	}
	if sumU > 0 {
		acc["tracing.overhead_ratio"] = sumT/sumU - 1
	}
	acc["tracing.unattributed_ratio"], rep.WorstUnattributed = tr.unattributed()
	for _, m := range perLayer {
		rep.set(m.name, m.unit, acc[m.name]+self[m.name], nil)
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
