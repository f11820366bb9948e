package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"checkfence/internal/core"
	"checkfence/internal/daemon"
	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
)

// serviceWorkload drives an in-process checkfenced server over HTTP
// from one closed-loop client, a CI caller that sends its next request
// only when the previous verdicts have all arrived. The server fans the
// four models of each request out to its suiteWorkers workers. A second
// client would make each latency depend on which request the other one
// had in flight, which the seed changes.
type serviceWorkload struct {
	cfg   config
	g     *gate
	kinds []requestKind
	srv   *daemon.Server
	ts    *httptest.Server
}

func (w *serviceWorkload) rows() []inputKey { return serviceRows() }

func (w *serviceWorkload) procs() int { return suiteWorkers }

// setup starts a fresh server and sends every request kind once, which
// fills the spec cache.
func (w *serviceWorkload) setup() error {
	w.close()
	w.kinds = requestKinds()
	w.srv = daemon.NewServer(daemon.Config{Parallelism: suiteWorkers})
	w.ts = httptest.NewServer(w.srv)
	for _, k := range w.kinds {
		rec := w.send(k)
		if rec.failed() {
			return fmt.Errorf("warm-up %s: %s", k.name, rec.problem())
		}
		w.gateRecord(k, rec)
	}
	return nil
}

// response is what one request returned.
type response struct {
	status  int
	err     error
	latency float64 // ms, send to the done line
	ttfb    float64 // ms, send to the first NDJSON line
	results []daemon.ResultLine
}

func (r response) failed() bool { return r.problem() != "" }

// problem describes why a request produced no full set of verdicts.
func (r response) problem() string {
	switch {
	case r.err != nil:
		return r.err.Error()
	case r.status != http.StatusOK:
		return "HTTP " + strconv.Itoa(r.status)
	case len(r.results) != len(allModels):
		return fmt.Sprintf("%d results for %d models", len(r.results), len(allModels))
	}
	for _, l := range r.results {
		if l.Error != "" {
			return l.Error
		}
		if l.Verdict == core.VerdictUnknown.String() {
			return "verdict unknown"
		}
	}
	return ""
}

// slowestJob is the largest total_time among the request's results, ms.
func (r response) slowestJob() float64 {
	var slow float64
	for _, l := range r.results {
		if l.Stats == nil {
			continue
		}
		if d, err := time.ParseDuration(l.Stats.TotalTime); err == nil {
			slow = max(slow, float64(d)/1e6)
		}
	}
	return slow
}

func (w *serviceWorkload) send(k requestKind) response {
	var rec response
	start := time.Now()
	resp, err := w.ts.Client().Post(w.ts.URL+"/v1/check", "application/json", bytes.NewReader(k.body))
	if err != nil {
		rec.err = err
		return rec
	}
	defer resp.Body.Close()
	rec.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return rec
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<22)
	for first := true; sc.Scan(); first = false {
		if first {
			rec.ttfb = float64(time.Since(start)) / 1e6
		}
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
			rec.err = err
			return rec
		}
		if head.Type != "result" {
			continue // the batch and done lines
		}
		var line daemon.ResultLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			rec.err = err
			return rec
		}
		rec.results = append(rec.results, line)
	}
	rec.err = sc.Err()
	rec.latency = float64(time.Since(start)) / 1e6
	return rec
}

// gateRecord checks a response's verdicts against the expected table.
func (w *serviceWorkload) gateRecord(k requestKind, rec response) {
	for _, l := range rec.results {
		v := l.Verdict
		if l.SeqBug {
			v = vSeqBug
		}
		w.g.check(inputKey{k.impl, k.test, l.Model}, v)
	}
}

// drive sends pass i's request list from the closed-loop client.
func (w *serviceWorkload) drive(i int, tr *tracer) (passOut, []response) {
	list := requestList(w.cfg.seed, i, w.cfg.limit)
	recs := make([]response, len(list))
	var out passOut
	for j, kind := range list {
		k := w.kinds[kind]
		ms, scale, alloc := timed(func() {
			id := 0
			if tr != nil {
				id = tr.begin("request", fmt.Sprintf("req%d", j), 0)
			}
			recs[j] = w.send(k)
			if tr != nil {
				tr.end(id)
			}
		})
		out.add(ms, scale, alloc)
		out.attempted++
		if recs[j].failed() {
			out.failed++
			continue
		}
		w.gateRecord(k, recs[j])
		out.lat = append(out.lat, sample{k.name, recs[j].latency, scale})
	}
	return out, recs
}

func (w *serviceWorkload) pass(i int) (passOut, error) {
	out, _ := w.drive(i, nil)
	return out, nil
}

// traced records one span per request and reads the service's layers
// from the responses and /metrics, then replays the litmus checks
// through the layer replay for the rf and front-end layers.
func (w *serviceWorkload) traced(i int, tr *tracer, acc map[string]float64) (passOut, error) {
	before, err := w.cacheCounts()
	if err != nil {
		return passOut{}, err
	}
	out, recs := w.drive(i, tr)
	after, err := w.cacheCounts()
	if err != nil {
		return out, err
	}
	if n := after[0] - before[0] + after[1] - before[1]; n > 0 {
		acc["core.spec_cache_hit_ratio"] = (after[0] - before[0]) / n
	}
	var ttfb, overhead []float64
	var busy float64
	for _, rec := range recs {
		if rec.failed() {
			continue
		}
		ttfb = append(ttfb, rec.ttfb)
		overhead = append(overhead, rec.latency-rec.slowestJob())
		busy += rec.slowestJob()
		for _, l := range rec.results {
			acc["spec.obs_set_size"] += float64(l.Stats.ObsSetSize)
			acc["spec.mine_iterations"] += float64(l.Stats.MineIterations)
			acc["encode.cnf_vars"] += float64(l.Stats.CNFVars)
			acc["encode.cnf_clauses"] += float64(l.Stats.CNFClauses)
		}
	}
	acc["daemon.ttfb_ms"] = median(ttfb)
	acc["daemon.overhead_ms"] = median(overhead)
	acc["core.worker_busy_ratio"] = busy / 1e3 / (out.wall * suiteWorkers)
	return out, w.replayLitmus(tr, acc)
}

// replayLitmus checks every litmus request kind on every model through
// the layer replay, against core.CheckImpl's answer. Only the rf
// counts join acc: the request pass already counted the rest.
func (w *serviceWorkload) replayLitmus(tr *tracer, acc map[string]float64) error {
	own := map[string]float64{}
	d := newLayerReplay(tr, own)
	impl := litmusImpl()
	for _, k := range w.kinds {
		if !k.litmus() {
			continue
		}
		test, err := harness.GetTest(impl, k.notation)
		if err != nil {
			return err
		}
		for _, name := range allModels {
			m, err := memmodel.Parse(name)
			if err != nil {
				return err
			}
			key := inputKey{k.impl, k.test, name}
			res, err := core.CheckImpl(impl, test, core.Options{Model: m})
			if err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			ref := reference{verdict: verdictOf(res), set: res.Spec, useRF: res.Stats.Backend == "rf"}
			v, set, err := d.run(key.String(), impl, test, m, ref.useRF)
			if err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			if err := ref.sameAnswer(v, set); err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			w.g.check(key, v)
		}
	}
	acc["rf.execs"] += own["rf.execs"]
	acc["rf.steps"] += own["rf.steps"]
	return nil
}

// cacheCounts reads the spec cache's hit and miss totals from /metrics.
func (w *serviceWorkload) cacheCounts() ([2]float64, error) {
	var out [2]float64
	resp, err := w.ts.Client().Get(w.ts.URL + "/metrics")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		switch f[0] {
		case "checkfenced_spec_cache_hits_total":
			out[0], err = strconv.ParseFloat(f[1], 64)
		case "checkfenced_spec_cache_misses_total":
			out[1], err = strconv.ParseFloat(f[1], 64)
		}
		if err != nil {
			return out, fmt.Errorf("/metrics: %w", err)
		}
	}
	return out, nil
}

func (w *serviceWorkload) close() {
	if w.ts == nil {
		return
	}
	w.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w.srv.Shutdown(ctx)
	w.srv, w.ts = nil, nil
}
