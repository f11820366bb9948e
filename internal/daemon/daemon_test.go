package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"checkfence/internal/core"
	"checkfence/internal/faultinject"
	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
)

// postBatch submits a batch and returns the parsed NDJSON lines.
func postBatch(t *testing.T, ts *httptest.Server, body string) (BatchLine, []ResultLine, DoneLine) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/check", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := readAll(resp)
		t.Fatalf("POST /v1/check: %s: %s", resp.Status, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	var batch BatchLine
	var results []ResultLine
	var done DoneLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch probe.Type {
		case "batch":
			if err := json.Unmarshal(line, &batch); err != nil {
				t.Fatal(err)
			}
		case "result":
			var r ResultLine
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatal(err)
			}
			results = append(results, r)
		case "done":
			if err := json.Unmarshal(line, &done); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unknown line type %q", probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if batch.ID == "" || done.Type != "done" {
		t.Fatalf("stream missing batch header or done footer: %+v %+v", batch, done)
	}
	return batch, results, done
}

func readAll(resp *http.Response) (string, error) {
	var b bytes.Buffer
	_, err := b.ReadFrom(resp.Body)
	return b.String(), err
}

func scrapeMetric(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := readAll(resp)
	var total int64
	found := false
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "# ") {
			continue
		}
		rest := strings.TrimPrefix(line, name)
		// Accept both bare and labeled series ("name 3", `name{l="v"} 3`).
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue
		}
		fields := strings.Fields(line)
		var v int64
		if _, err := fmt.Sscanf(fields[len(fields)-1], "%d", &v); err != nil {
			t.Fatalf("bad metric line %q: %v", line, err)
		}
		total += v
		found = true
	}
	if !found {
		t.Fatalf("metric %s not found in:\n%s", name, body)
	}
	return total
}

// TestBatchMatchesDirect is the service's core contract: HTTP verdicts
// are identical to direct library checks, across a multi-model sweep.
func TestBatchMatchesDirect(t *testing.T) {
	srv := NewServer(Config{Parallelism: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	models := []string{"sc", "tso"}
	_, results, done := postBatch(t, ts, `{
		"jobs": [{"program": {"name": "msn"}, "test": "T0", "models": ["sc", "tso"]}]
	}`)
	if len(results) != len(models) {
		t.Fatalf("got %d results, want %d", len(results), len(models))
	}
	if done.Errors != 0 {
		t.Fatalf("done reports %d errors", done.Errors)
	}
	for _, r := range results {
		if r.Error != "" {
			t.Fatalf("job %s errored: %s", r.ID, r.Error)
		}
		m, err := memmodel.Parse(r.Model)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := core.Check("msn", "T0", core.Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != direct.Verdict.String() || r.Pass != direct.Pass {
			t.Errorf("%s on %s: daemon %s/%v, direct %s/%v",
				r.Impl, r.Model, r.Verdict, r.Pass, direct.Verdict.String(), direct.Pass)
		}
	}
	if got := scrapeMetric(t, ts, "checkfenced_jobs_total"); got != int64(len(models)) {
		t.Errorf("jobs_total = %d, want %d", got, len(models))
	}
	if scrapeMetric(t, ts, "checkfenced_batches_total") != 1 {
		t.Error("batches_total != 1")
	}
	if scrapeMetric(t, ts, "checkfenced_inflight_jobs") != 0 {
		t.Error("inflight_jobs != 0 after batch completion")
	}
}

// TestSweepChecksMetric: checkfenced_sweep_checks_total counts the
// checks a model-sweep group decided, one per member result, so one
// 4-model batch entry adds 4.
func TestSweepChecksMetric(t *testing.T) {
	srv := NewServer(Config{Parallelism: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, results, done := postBatch(t, ts, `{"jobs": [{"program": {"name": "ms2"},
		"test": "T0", "models": ["sc", "tso", "pso", "relaxed"]}]}`)
	if done.Errors != 0 || len(results) != 4 {
		t.Fatalf("%d results, %d errors; want 4 and 0", len(results), done.Errors)
	}
	if got := scrapeMetric(t, ts, "checkfenced_sweep_checks_total"); got != 4 {
		t.Errorf("sweep_checks_total = %d after one 4-model sweep; want 4", got)
	}
}

// TestFailVerdictCarriesTrace: a buggy implementation's counterexample
// rides the wire.
func TestFailVerdictCarriesTrace(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, results, _ := postBatch(t, ts, `{
		"jobs": [{"program": {"name": "msn-nofence"}, "test": "T0", "model": "relaxed"}]
	}`)
	r := results[0]
	if r.Verdict != "fail" || r.Pass {
		t.Fatalf("verdict = %s, want fail", r.Verdict)
	}
	if r.Cex == "" {
		t.Error("fail verdict without a counterexample trace")
	}
}

// TestLegacyStrategyFieldsIgnored: a batch written for an older daemon
// may still carry the removed in-process strategy fields ("portfolio",
// "share_clauses", "cube"), the removed fleet cube fields ("assume",
// "cube_of", "cube_index"), the removed ablation switches
// ("simplify_level", "no_preprocess", "no_inprocess",
// "no_order_reduce") or the removed bound-round cap
// ("max_bound_rounds"). The decoder ignores unknown fields, so the
// batch is accepted and every verdict equals that of the same batch
// without them. An ignored cube restriction widens the check to the
// whole formula, which is sound; the ablation switches never change a
// verdict (TestOrderReduceAblation, TestMinimizationDifferential); a cap
// of 1 would have failed any check whose bounds grow, and the fixed
// cap only ever lets such a check finish.
func TestLegacyStrategyFieldsIgnored(t *testing.T) {
	srv := NewServer(Config{Parallelism: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	verdicts := func(extra string) map[string]string {
		_, results, done := postBatch(t, ts, `{"jobs": [{"program": {"name": "msn-nofence"},
			"test": "T0", "models": ["sc", "relaxed"]`+extra+`}]}`)
		if done.Errors != 0 || len(results) != 2 {
			t.Fatalf("batch%s: %d results, %d errors", extra, len(results), done.Errors)
		}
		out := map[string]string{}
		for _, r := range results {
			if r.Error != "" {
				t.Fatalf("batch%s: %s errored: %s", extra, r.Model, r.Error)
			}
			out[r.Model] = r.Verdict
		}
		return out
	}
	plain := verdicts("")
	legacy := verdicts(`, "portfolio": 4, "share_clauses": true, "cube": 4,
		"assume": [3, -7], "cube_of": "x", "cube_index": 1,
		"simplify_level": -1, "no_preprocess": true, "no_inprocess": true, "no_order_reduce": true,
		"max_bound_rounds": 1`)
	if plain["sc"] != "pass" || plain["relaxed"] != "fail" {
		t.Fatalf("plain batch verdicts = %v, want sc pass and relaxed fail", plain)
	}
	for m, v := range plain {
		if legacy[m] != v {
			t.Errorf("%s: legacy-field batch verdict %q, plain batch %q", m, legacy[m], v)
		}
	}
}

// TestConcurrentClientsSingleFlight: two clients concurrently
// requesting the same mining problem must trigger exactly one miner —
// the shared-tier hit shows up in /metrics.
func TestConcurrentClientsSingleFlight(t *testing.T) {
	srv := NewServer(Config{Parallelism: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `{"jobs": [{"program": {"name": "ms2"}, "test": "T0", "model": "sc"}]}`
	var wg sync.WaitGroup
	errs := make([]string, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/check", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err.Error()
				return
			}
			defer resp.Body.Close()
			raw, _ := readAll(resp)
			if resp.StatusCode != http.StatusOK {
				errs[i] = resp.Status + ": " + raw
			} else if !strings.Contains(raw, `"verdict":"pass"`) {
				errs[i] = "no pass verdict in: " + raw
			}
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Fatalf("client %d: %s", i, e)
		}
	}
	if misses := scrapeMetric(t, ts, "checkfenced_spec_cache_misses_total"); misses != 1 {
		t.Errorf("spec_cache_misses_total = %d, want exactly 1 miner run", misses)
	}
	if hits := scrapeMetric(t, ts, "checkfenced_spec_cache_hits_total"); hits < 1 {
		t.Errorf("spec_cache_hits_total = %d, want >= 1 shared-tier hit", hits)
	}
}

// TestPollPath: results stay fetchable after the batch stream closed.
func TestPollPath(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	batch, results, _ := postBatch(t, ts, `{
		"jobs": [{"program": {"name": "msn"}, "test": "T0", "model": "sc"}]
	}`)
	if len(batch.Jobs) != 1 {
		t.Fatalf("batch jobs = %v", batch.Jobs)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + batch.Jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Result == nil {
		t.Fatalf("job status = %+v", st)
	}
	if st.Result.Verdict != results[0].Verdict {
		t.Errorf("poll verdict %s != streamed %s", st.Result.Verdict, results[0].Verdict)
	}

	if resp, err := http.Get(ts.URL + "/v1/jobs/nope"); err == nil {
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: %s", resp.Status)
		}
		resp.Body.Close()
	}
}

// TestInlineProgram: a program shipped in the request body (not the
// registry) verifies like its bundled twin.
func TestInlineProgram(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	impl, err := coreImpl("msn")
	if err != nil {
		t.Fatal(err)
	}
	req := map[string]any{
		"jobs": []map[string]any{{
			"program": impl,
			"test":    "T0",
			"model":   "sc",
		}},
	}
	body, _ := json.Marshal(req)
	_, results, _ := postBatch(t, ts, string(body))
	if results[0].Error != "" {
		t.Fatalf("inline job errored: %s", results[0].Error)
	}
	if results[0].Verdict != "pass" {
		t.Errorf("inline msn on sc = %s, want pass", results[0].Verdict)
	}
	if results[0].Impl != "wire-msn" {
		t.Errorf("impl label = %s", results[0].Impl)
	}
}

// coreImpl renders a bundled implementation as an inline wire program.
func coreImpl(name string) (map[string]any, error) {
	impl, err := harness.Get(name)
	if err != nil {
		return nil, err
	}
	ops := make([]map[string]any, 0, len(impl.Ops))
	for _, op := range impl.Ops {
		ops = append(ops, map[string]any{
			"mnemonic": op.Mnemonic, "func": op.Func,
			"num_args": op.NumArgs, "has_ret": op.HasRet, "has_out": op.HasOut,
		})
	}
	return map[string]any{
		"name":      "wire-" + name,
		"source":    impl.Source,
		"init_func": impl.InitFunc,
		"object":    impl.Obj,
		"kind":      impl.Kind,
		"ops":       ops,
	}, nil
}

// TestShutdownDrains: Shutdown completes in-flight batches and
// rejects new ones with 503.
func TestShutdownDrains(t *testing.T) {
	srv := NewServer(Config{Parallelism: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type outcome struct {
		done DoneLine
		errs int
	}
	ch := make(chan outcome, 1)
	go func() {
		_, results, done := postBatch(t, ts, `{
			"jobs": [{"program": {"name": "msn"}, "test": "T0", "models": ["sc", "tso"]}]
		}`)
		n := 0
		for _, r := range results {
			if r.Error != "" {
				n++
			}
		}
		ch <- outcome{done, n}
	}()

	// Give the batch a moment to be admitted, then drain with a
	// generous window: the batch must finish cleanly.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	out := <-ch
	if out.errs != 0 || out.done.Errors != 0 {
		t.Errorf("batch finished during shutdown reported errors: %+v", out)
	}

	resp, err := http.Post(ts.URL+"/v1/check", "application/json",
		strings.NewReader(`{"jobs":[{"program":{"name":"msn"},"test":"T0","model":"sc"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit: %s, want 503", resp.Status)
	}
}

// TestRestartServesDiskHit is the kill-and-restart scenario: a fresh
// process on a primed cache directory serves the check from disk —
// no mine, nothing moved aside as corrupt — and sweeps the .part
// mining checkpoints older builds left there.
func TestRestartServesDiskHit(t *testing.T) {
	dir := t.TempDir()
	const batch = `{"jobs": [{"program": {"name": "msn"}, "test": "T0", "model": "sc"}]}`

	// Process 1 primes the disk tier.
	srv1 := NewServer(Config{CacheDir: dir})
	ts1 := httptest.NewServer(srv1)
	if _, results, done := postBatch(t, ts1, batch); done.Errors != 0 {
		t.Fatalf("priming batch errored: %+v", results)
	}
	ts1.Close()
	if obs, err := filepath.Glob(filepath.Join(dir, "*.obs")); err != nil || len(obs) == 0 {
		t.Fatalf("priming left no .obs entry: %v (%v)", obs, err)
	}
	stale := filepath.Join(dir, "feedface.part")
	if err := os.WriteFile(stale, []byte("checkfence-obs-part 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Process 2: fresh server, same cache directory.
	srv2 := NewServer(Config{CacheDir: dir})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	_, results2, done2 := postBatch(t, ts2, batch)
	if done2.Errors != 0 {
		t.Fatalf("restarted daemon errored: %+v", results2)
	}
	direct, err := core.Check("msn", "T0", core.Options{Model: memmodel.SequentialConsistency})
	if err != nil {
		t.Fatal(err)
	}
	if results2[0].Verdict != direct.Verdict.String() {
		t.Errorf("disk-served verdict %s != direct %s", results2[0].Verdict, direct.Verdict.String())
	}
	if got := scrapeMetric(t, ts2, "checkfenced_spec_cache_hits_total"); got < 1 {
		t.Errorf("spec_cache_hits_total = %d, want >= 1", got)
	}
	if got := scrapeMetric(t, ts2, "checkfenced_spec_cache_misses_total"); got != 0 {
		t.Errorf("spec_cache_misses_total = %d, want 0: the primed set was re-mined", got)
	}
	if got := scrapeMetric(t, ts2, "checkfenced_spec_cache_corrupt_total"); got != 0 {
		t.Errorf("primed entry was treated as corrupt: corrupt_total = %d", got)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale checkpoint survived the restart: %v", err)
	}
}

// TestChaosCacheCorrupt: a corrupt disk entry under fault injection is
// moved aside to .bad and re-mined — the daemon still answers
// correctly and counts the corrupt entry in /metrics.
func TestChaosCacheCorrupt(t *testing.T) {
	dir := t.TempDir()

	// Prime the disk tier.
	srv1 := NewServer(Config{CacheDir: dir})
	ts1 := httptest.NewServer(srv1)
	postBatch(t, ts1, `{"jobs":[{"program":{"name":"msn"},"test":"T0","model":"sc"}]}`)
	ts1.Close()

	// Restart with CacheCorrupt armed: the disk load is corrupted,
	// moved aside, and the set re-mined.
	faults := &faultinject.Always{Sites: []faultinject.Site{faultinject.CacheCorrupt}}
	srv2 := NewServer(Config{CacheDir: dir, Faults: faults})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	_, results, done := postBatch(t, ts2, `{"jobs":[{"program":{"name":"msn"},"test":"T0","model":"sc"}]}`)
	if done.Errors != 0 {
		t.Fatalf("corrupt-cache batch errored: %+v", results)
	}
	if results[0].Verdict != "pass" {
		t.Errorf("verdict = %s, want pass", results[0].Verdict)
	}
	if got := scrapeMetric(t, ts2, "checkfenced_spec_cache_corrupt_total"); got < 1 {
		t.Errorf("corrupt_total = %d, want >= 1", got)
	}
	if bad, _ := filepath.Glob(filepath.Join(dir, "*.bad")); len(bad) == 0 {
		t.Error("no .bad file on disk")
	}
}

// TestBadRequests: malformed bodies and descriptions get 400s, not
// stream starts.
func TestBadRequests(t *testing.T) {
	srv := NewServer(Config{MaxBatchJobs: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		name, body string
	}{
		{"bad json", `{"jobs": [`},
		{"empty batch", `{"jobs": []}`},
		{"unknown model", `{"jobs":[{"program":{"name":"msn"},"test":"T0","model":"ppc"}]}`},
		{"unknown impl", `{"jobs":[{"program":{"name":"nope"},"test":"T0","model":"sc"}]}`},
		{"over batch cap", `{"jobs":[{"program":{"name":"msn"},"test":"T0","models":["sc","tso","pso"]}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/check", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: %s, want 400", tc.name, resp.Status)
			}
		})
	}
}

// TestBackendRFRejected: "rf" is not a selectable backend (auto routes
// litmus programs to the reads-from engine), so a job naming it gets a
// 400 whose message names the two backends there are.
func TestBackendRFRejected(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/check", "application/json", strings.NewReader(
		`{"jobs":[{"program":{"name":"ms2"},"test":"T0","model":"sc","backend":"rf"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("backend rf: %s, want 400", resp.Status)
	}
	if msg := string(body); !strings.Contains(msg, "auto") || !strings.Contains(msg, "sat") {
		t.Errorf("400 body %q does not name auto and sat", msg)
	}
}

// TestDeadlineClamp: the server-side MaxTimeout clamps client
// deadlines; a clamped job still runs (possibly to unknown).
func TestDeadlineClamp(t *testing.T) {
	srv := NewServer(Config{MaxTimeout: 30 * time.Second})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	_, results, _ := postBatch(t, ts, `{
		"jobs": [{"program": {"name": "msn"}, "test": "T0", "model": "sc", "timeout": "10h"}]
	}`)
	if results[0].Error != "" {
		t.Fatalf("clamped job errored: %s", results[0].Error)
	}
	if results[0].Verdict != "pass" {
		t.Errorf("verdict = %s", results[0].Verdict)
	}
}

// TestMaxInflightShedsLoad: a saturated admission gate must refuse the
// batch with 503 and a Retry-After hint, not queue it unboundedly.
func TestMaxInflightShedsLoad(t *testing.T) {
	srv := NewServer(Config{MaxInflight: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	// A 2-job batch exceeds the 1-job admission cap outright.
	resp, err := http.Post(ts.URL+"/v1/check", "application/json",
		strings.NewReader(`{"jobs": [{"program": {"name": "ms2"}, "test": "T0", "models": ["sc", "tso"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 without a Retry-After hint")
	}
}
