// Package daemon implements the checkfenced HTTP verification
// service: batch check submission with streamed NDJSON verdicts, a
// poll path for finished jobs, and Prometheus-format metrics. One
// process hosts one Server; batches from any number of clients share
// a single admission gate (core.Gate) bounding concurrent solver
// work, one spec cache (memory + content-addressed disk tier), and
// one metrics surface.
package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"checkfence/internal/core"
	"checkfence/internal/faultinject"
	"checkfence/internal/job"
)

// Config tunes a Server. The zero value is usable: GOMAXPROCS-bounded
// gate, memory-only spec cache, no default deadline.
type Config struct {
	// Parallelism bounds concurrently running check units across ALL
	// in-flight batches (<= 0 means GOMAXPROCS).
	Parallelism int
	// CacheDir enables the shared on-disk observation-set tier.
	CacheDir string
	// DefaultTimeout applies to jobs that do not set their own.
	DefaultTimeout time.Duration
	// MaxTimeout clamps per-job deadlines (0 = unclamped).
	MaxTimeout time.Duration
	// MaxBatchJobs caps jobs per /v1/check request after model
	// expansion (0 = 256).
	MaxBatchJobs int
	// MaxBodyBytes caps request bodies (0 = 8 MiB).
	MaxBodyBytes int64
	// Faults arms deterministic fault injection on every batch (chaos
	// tests only).
	Faults faultinject.Faults
	// MaxInflight caps admitted-but-unfinished jobs across all batches;
	// a batch that would exceed it is refused with 503 and a
	// Retry-After hint instead of queueing unboundedly (0 = unlimited).
	MaxInflight int
}

func (c Config) maxBatchJobs() int {
	if c.MaxBatchJobs <= 0 {
		return 256
	}
	return c.MaxBatchJobs
}

func (c Config) maxBodyBytes() int64 {
	if c.MaxBodyBytes <= 0 {
		return 8 << 20
	}
	return c.MaxBodyBytes
}

// BatchRequest is the body of POST /v1/check.
type BatchRequest struct {
	// Jobs are the checks to run. Each may name several models; a
	// k-model entry expands into k jobs that the scheduler solves on
	// one shared sweep encoding when eligible.
	Jobs []BatchJob `json:"jobs"`
	// Timeout is the default per-job deadline for jobs without one.
	Timeout job.Duration `json:"timeout,omitempty"`
}

// BatchJob is one request entry: a serializable check description
// plus an optional multi-model expansion.
type BatchJob struct {
	job.Check
	// Models, when non-empty, overrides Check.Model with one job per
	// listed model.
	Models []string `json:"models,omitempty"`
}

// ResultLine is one streamed NDJSON verdict (type "result"): the
// check's job.Result under its wire ID. The first line of a response
// is a BatchLine, the last a DoneLine.
type ResultLine struct {
	Type  string `json:"type"`
	ID    string `json:"id"`
	Index int    `json:"index"`
	job.Result
}

// BatchLine heads a streamed response (type "batch").
type BatchLine struct {
	Type string   `json:"type"`
	ID   string   `json:"id"`
	Jobs []string `json:"jobs"`
}

// DoneLine closes a streamed response (type "done").
type DoneLine struct {
	Type    string `json:"type"`
	Pass    int    `json:"pass"`
	Fail    int    `json:"fail"`
	Unknown int    `json:"unknown"`
	Errors  int    `json:"errors"`
	Elapsed string `json:"elapsed"`
}

// JobStatus is the body of GET /v1/jobs/{id}.
type JobStatus struct {
	ID     string      `json:"id"`
	State  string      `json:"state"` // "running" | "done"
	Result *ResultLine `json:"result,omitempty"`
}

// Server is the checkfenced HTTP handler. Create with NewServer,
// serve with net/http, stop with Shutdown.
type Server struct {
	cfg   Config
	cache *core.SpecCache
	gate  core.Gate
	mux   *http.ServeMux

	ctx    context.Context // done on hard stop: in-flight solves abort
	cancel context.CancelFunc

	draining atomic.Bool
	wg       sync.WaitGroup // in-flight batches

	mu       sync.Mutex
	nextID   int64
	records  map[string]*JobStatus
	inflight int64
	batches  int64
	verdicts map[string]int64 // verdict string -> count
	errors   int64
	router   map[string]int64 // router decision -> count
	sweeps   int64            // checks decided by a sweep group
	budgets  int64            // results shaped by budget exhaustion
}

// NewServer builds a Server around a fresh spec cache (rooted at
// cfg.CacheDir) and admission gate.
func NewServer(cfg Config) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		cache:    core.NewSpecCache(cfg.CacheDir),
		gate:     core.NewGate(cfg.Parallelism),
		ctx:      ctx,
		cancel:   cancel,
		records:  map[string]*JobStatus{},
		verdicts: map[string]int64{},
		router:   map[string]int64{},
	}
	if cfg.Faults != nil {
		s.cache.SetFaults(cfg.Faults)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/check", s.handleCheck)
	s.mux.HandleFunc("/v1/jobs/", s.handleJob)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Cache exposes the server's spec cache (tests and embedding).
func (s *Server) Cache() *core.SpecCache { return s.cache }

// Shutdown drains the server: new batches are rejected with 503,
// in-flight batches run to completion. If ctx expires first the
// remaining work is cancelled — interrupted miners have checkpointed
// partial sets to the cache directory (every 32 iterations and on
// failure), so the next process resumes rather than restarts them.
// Returns ctx.Err() when the drain was cut short.
func (s *Server) Shutdown(ctx context.Context) error {
	// Serialize with batch admission: once draining is visible under
	// s.mu no handler will wg.Add, so wg.Wait below is race-free.
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return ctx.Err()
	}
}

// expand validates a batch and renders it as core jobs plus their
// wire IDs.
func (s *Server) expand(req *BatchRequest, batchID string) ([]core.Job, []string, error) {
	var jobs []core.Job
	var ids []string
	for bi := range req.Jobs {
		entry := &req.Jobs[bi]
		models := entry.Models
		if len(models) == 0 {
			models = []string{entry.Check.Model}
		}
		for _, m := range models {
			c := entry.Check
			c.Model = m
			if c.Timeout == 0 {
				if req.Timeout != 0 {
					c.Timeout = req.Timeout
				} else {
					c.Timeout = job.Duration(s.cfg.DefaultTimeout)
				}
			}
			if max := s.cfg.MaxTimeout; max > 0 {
				if time.Duration(c.Timeout) <= 0 || time.Duration(c.Timeout) > max {
					c.Timeout = job.Duration(max)
				}
			}
			cj, err := c.CoreJob()
			if err != nil {
				return nil, nil, fmt.Errorf("jobs[%d] model %q: %w", bi, m, err)
			}
			jobs = append(jobs, cj)
			ids = append(ids, fmt.Sprintf("%s-%d", batchID, len(ids)))
		}
	}
	if len(jobs) == 0 {
		return nil, nil, fmt.Errorf("empty batch")
	}
	if len(jobs) > s.cfg.maxBatchJobs() {
		return nil, nil, fmt.Errorf("batch of %d jobs exceeds limit %d", len(jobs), s.cfg.maxBatchJobs())
	}
	return jobs, ids, nil
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	var req BatchRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes())
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}

	s.mu.Lock()
	s.nextID++
	batchID := fmt.Sprintf("b%d", s.nextID)
	s.mu.Unlock()

	jobs, ids, err := s.expand(&req, batchID)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// The batch is admitted: it must finish (or be hard-cancelled)
	// even if the client goes away, so poll clients can still fetch
	// verdicts. Only server shutdown cancels the work. Admission is
	// serialized with Shutdown on s.mu so wg.Add never races wg.Wait,
	// and a batch that lost the race to a concurrent drain is turned
	// away instead of slipping past it.
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if max := s.cfg.MaxInflight; max > 0 && s.inflight+int64(len(jobs)) > int64(max) {
		// Admission saturated: shed load with a backoff hint instead of
		// queueing unboundedly. The retry client honors Retry-After.
		s.mu.Unlock()
		w.Header().Set("Retry-After", "5")
		http.Error(w, "admission gate saturated", http.StatusServiceUnavailable)
		return
	}
	s.wg.Add(1)
	s.batches++
	s.inflight += int64(len(jobs))
	for _, id := range ids {
		s.records[id] = &JobStatus{ID: id, State: "running"}
	}
	s.mu.Unlock()
	defer s.wg.Done()

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	writeLine := func(v any) {
		enc.Encode(v)
		if flusher != nil {
			flusher.Flush()
		}
	}
	writeLine(BatchLine{Type: "batch", ID: batchID, Jobs: ids})

	start := time.Now()
	done := DoneLine{Type: "done"}
	core.RunSuite(jobs, core.SuiteOptions{
		Parallelism: s.cfg.Parallelism,
		Context:     s.ctx,
		SpecCache:   s.cache,
		Gate:        s.gate,
		Faults:      s.cfg.Faults,
		OnResult: func(i int, sr core.SuiteResult) {
			r := job.NewResult(jobs[i], sr.Res, sr.Err)
			line := &ResultLine{Type: "result", ID: ids[i], Index: i, Result: r}
			switch {
			case r.Error != "":
				done.Errors++
			case r.Verdict == "fail":
				done.Fail++
			case r.Verdict == "unknown":
				done.Unknown++
			default:
				done.Pass++
			}
			s.record(line)
			writeLine(line)
		},
	})
	done.Elapsed = time.Since(start).String()
	writeLine(done)
}

// record stores a finished check for the poll endpoint and folds it
// into the verdict, router, sweep and budget counters.
func (s *Server) record(line *ResultLine) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	if rec, ok := s.records[line.ID]; ok {
		rec.State = "done"
		rec.Result = line
	}
	if line.Error != "" {
		s.errors++
		return
	}
	s.verdicts[line.Verdict]++
	if st := line.Stats; st != nil {
		if st.RouterDecision != "" {
			s.router[st.RouterDecision]++
		}
		s.sweeps += int64(st.SweepGroups)
	}
	if line.Budget != nil {
		s.budgets++
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	s.mu.Lock()
	rec, ok := s.records[id]
	var cp JobStatus
	if ok {
		cp = *rec
	}
	s.mu.Unlock()
	if !ok {
		http.Error(w, "unknown job "+id, http.StatusNotFound)
		return
	}
	if cp.State == "running" {
		// Backoff hint for poll loops: solver work rarely finishes in
		// under a second, so an immediate re-poll is wasted.
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(cp)
}

// handleMetrics serves the Prometheus text exposition format
// (version 0.0.4): daemon job counters plus the shared spec cache's
// cumulative traffic.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	cs := s.cache.Stats()
	s.mu.Lock()
	batches, inflight := s.batches, s.inflight
	errors, sweeps, budgets := s.errors, s.sweeps, s.budgets
	verdicts := make(map[string]int64, len(s.verdicts))
	for k, v := range s.verdicts {
		verdicts[k] = v
	}
	router := make(map[string]int64, len(s.router))
	for k, v := range s.router {
		router[k] = v
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	labeled := func(name, help, label string, m map[string]int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s{%s=%q} %d\n", name, label, k, m[k])
		}
	}
	counter("checkfenced_batches_total", "Accepted /v1/check batches.", batches)
	labeled("checkfenced_jobs_total", "Finished jobs by verdict.", "verdict", verdicts)
	counter("checkfenced_job_errors_total", "Jobs that failed to run.", errors)
	gauge("checkfenced_inflight_jobs", "Jobs admitted but not finished.", inflight)
	labeled("checkfenced_router_decisions_total", "Backend router decisions.", "decision", router)
	counter("checkfenced_sweep_checks_total", "Checks decided by a model-sweep group.", sweeps)
	counter("checkfenced_budget_exhausted_total", "Results shaped by budget exhaustion.", budgets)
	counter("checkfenced_spec_cache_hits_total", "Spec cache hits (memory or disk).", int64(cs.Hits))
	counter("checkfenced_spec_cache_misses_total", "Spec cache misses (fresh mines).", int64(cs.Misses))
	counter("checkfenced_spec_cache_resumed_total", "Mines resumed from a checkpoint.", int64(cs.Resumed))
	counter("checkfenced_spec_cache_corrupt_total", "Corrupt cache files moved aside to .bad.", int64(cs.Corrupt))
	gauge("checkfenced_spec_cache_entries", "In-memory spec cache entries.", int64(cs.Entries))
	io.WriteString(w, b.String())
}
