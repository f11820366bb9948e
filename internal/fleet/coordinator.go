package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"

	"checkfence/internal/core"
	"checkfence/internal/job"
)

// CoordinatorConfig tunes the fault-tolerance machinery. The zero
// value is usable; every knob has a conservative default.
type CoordinatorConfig struct {
	// Lease is the lease granted per task; a worker must heartbeat
	// within it or the task requeues (0 = 30s).
	Lease time.Duration
	// MaxRetries bounds the re-dispatches after a task's first
	// dispatch: a task is dispatched at most 1+MaxRetries times before
	// the coordinator solves it locally (0 = 3).
	MaxRetries int
	// BaseBackoff seeds the exponential requeue backoff (0 = 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps one requeue backoff step (0 = 5s).
	MaxBackoff time.Duration
	// PollRetryAfter hints idle workers when to poll again (0 = 250ms).
	PollRetryAfter time.Duration
	// JournalPath enables crash recovery: accepted outcomes are
	// appended as JSON lines and replayed on restart.
	JournalPath string
	// Local configures local (retry-exhaustion fallback) solves.
	Local core.SuiteOptions
}

func (c CoordinatorConfig) lease() time.Duration {
	if c.Lease <= 0 {
		return 30 * time.Second
	}
	return c.Lease
}

func (c CoordinatorConfig) maxRetries() int {
	if c.MaxRetries <= 0 {
		return 3
	}
	return c.MaxRetries
}

func (c CoordinatorConfig) pollRetryAfter() time.Duration {
	if c.PollRetryAfter <= 0 {
		return 250 * time.Millisecond
	}
	return c.PollRetryAfter
}

// Metrics is a snapshot of the coordinator's fault-tolerance
// counters, exposed on the daemon's /metrics surface.
type Metrics struct {
	TasksDispatched  int64 // leases granted (including re-dispatch)
	TasksCompleted   int64 // results accepted (first per task)
	LeaseExpirations int64 // leases lost to missing heartbeats
	Requeues         int64 // tasks put back in the queue for re-dispatch
	DupResults       int64 // duplicate results dropped by dedup
	LateResults      int64 // results rejected after lease reassignment
	LocalFallbacks   int64 // tasks solved locally after retry exhaustion
	JournalReplayed  int64 // task outcomes restored from the journal
}

// task is one check in the coordinator's queue. Concurrent
// CheckDistributed calls for the same fingerprint share it.
type task struct {
	id    string // the check's fingerprint
	check job.Check

	// state is "queued" (in the dispatch queue, or about to be
	// launched into it), "leased" (held by worker until expires), or
	// "done" (answered, or claimed by the local solver).
	state    string
	worker   string
	expires  time.Time
	attempts int       // re-dispatches so far
	nextAt   time.Time // not dispatchable before (requeue backoff)
	failedBy map[string]bool
	waiters  int // CheckDistributed calls sharing the task

	outcome Outcome
	err     error         // set when the task could not be launched
	from    string        // worker (or "local"/"journal") that produced outcome
	done    chan struct{} // closed once outcome or err is set
}

// Coordinator leases checks to polling workers and accepts exactly one
// outcome per check. Create with
// NewCoordinator, mount Handler on an HTTP server, submit checks with
// CheckDistributed, stop with Close.
type Coordinator struct {
	cfg     CoordinatorConfig
	journal *journal
	rng     *rand.Rand

	mu      sync.Mutex
	queue   []*task          // queued tasks in dispatch order; nextAt-gated
	tasks   map[string]*task // unanswered checks by fingerprint
	done    map[string]bool  // answered fingerprints, for duplicate dedup
	metrics Metrics

	janitorStop chan struct{}
	janitorDone chan struct{}
	closed      bool
}

// NewCoordinator builds a coordinator and starts its lease janitor.
// The journal (when configured) is opened and replayed lazily, per
// check fingerprint, at CheckDistributed time.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	c := &Coordinator{
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
		tasks:       map[string]*task{},
		done:        map[string]bool{},
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	if cfg.JournalPath != "" {
		j, err := openJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		c.journal = j
	}
	go c.janitor()
	return c, nil
}

// Close stops the janitor and the journal. In-flight CheckDistributed
// calls are not interrupted (cancel their contexts instead).
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.janitorStop)
	<-c.janitorDone
	if c.journal != nil {
		c.journal.Close()
	}
}

// Metrics returns a snapshot of the fault-tolerance counters.
func (c *Coordinator) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.metrics
}

// janitor scans leases every lease/4 (bounded below at 10ms) and
// requeues the tasks whose lease expired.
func (c *Coordinator) janitor() {
	defer close(c.janitorDone)
	period := c.cfg.lease() / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-c.janitorStop:
			return
		case <-t.C:
			c.sweepLeases()
		}
	}
}

// sweepLeases is one janitor pass.
func (c *Coordinator) sweepLeases() {
	now := time.Now()
	c.mu.Lock()
	var locals []*task
	for _, t := range c.tasks {
		if t.state != "leased" || !now.After(t.expires) {
			continue
		}
		t.failedBy[t.worker] = true
		c.metrics.LeaseExpirations++
		if c.requeueLocked(t, now) {
			locals = append(locals, t)
		}
	}
	c.mu.Unlock()
	for _, t := range locals {
		c.solveLocally(t)
	}
}

// requeueLocked puts a task whose lease ended back in the queue with
// exponential backoff plus jitter. Once its MaxRetries re-dispatches
// are spent it instead claims the task for a local solve and reports
// true. Caller holds c.mu.
func (c *Coordinator) requeueLocked(t *task, now time.Time) bool {
	t.worker = ""
	if t.attempts >= c.cfg.maxRetries() {
		t.state = "done" // claimed by the local solver
		c.metrics.LocalFallbacks++
		return true
	}
	t.state = "queued"
	t.attempts++
	c.metrics.Requeues++
	backoff := c.cfg.BaseBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	max := c.cfg.MaxBackoff
	if max <= 0 {
		max = 5 * time.Second
	}
	d := backoff << uint(t.attempts-1)
	if d > max || d <= 0 {
		d = max
	}
	d += time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	t.nextAt = now.Add(d)
	c.queue = append(c.queue, t)
	return false
}

// solveLocally runs a task claimed after retry exhaustion in the
// coordinator process and offers the outcome like a worker's. The
// verdict is degraded in provenance, never in value: the budget trail
// names the fallback.
func (c *Coordinator) solveLocally(t *task) {
	out := runCheck(t.check, c.cfg.Local)
	if out.Budget == nil {
		out.Budget = &job.Budget{}
	}
	out.Budget.Rungs = append(out.Budget.Rungs, "fleet local-fallback")
	c.acceptOutcome(t.id, "local", out, t)
}

// CheckDistributed verifies one check through the fleet: the check is
// queued as one task for workers, and its outcome returned once one is
// accepted. Concurrent calls for the same description share one task
// (single-flight on the fingerprint). Cancelling ctx abandons the wait
// — the task stays queued, and an accepted outcome is journaled, so a
// restarted coordinator replays it.
func (c *Coordinator) CheckDistributed(ctx context.Context, ck job.Check) (Outcome, error) {
	if err := ck.Validate(); err != nil {
		return Outcome{}, err
	}
	t, fresh := c.join(ck)
	if fresh {
		c.launch(t)
	}

	select {
	case <-t.done:
	case <-ctx.Done():
		return Outcome{}, ctx.Err()
	}
	// Written before done was closed and never again.
	return t.outcome, t.err
}

// join returns the unanswered task for the check's fingerprint,
// creating it (fresh = true) when there is none; the caller of a fresh
// task must launch it.
func (c *Coordinator) join(ck job.Check) (t *task, fresh bool) {
	fp := ck.Fingerprint()
	c.mu.Lock()
	defer c.mu.Unlock()
	if t = c.tasks[fp]; t == nil {
		t = &task{
			id:       fp,
			check:    ck,
			state:    "queued",
			failedBy: map[string]bool{},
			done:     make(chan struct{}),
		}
		c.tasks[fp] = t
		delete(c.done, fp) // a resubmission is a new task
		fresh = true
	}
	t.waiters++
	return t, fresh
}

// launch adopts the task's outcome from the journal when one is
// recorded, and queues the task for workers otherwise.
func (c *Coordinator) launch(t *task) {
	var out Outcome
	var replayed bool
	var err error
	if c.journal != nil {
		out, replayed, err = c.journal.Replay(t.id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case err != nil:
		t.err = err
		delete(c.tasks, t.id)
		close(t.done)
	case replayed:
		t.state = "done"
		t.outcome = out
		t.from = "journal"
		c.metrics.JournalReplayed++
		delete(c.tasks, t.id)
		c.done[t.id] = true
		close(t.done)
	default:
		c.queue = append(c.queue, t)
	}
}

// acceptOutcome is the exactly-once completion point: the first
// outcome per task wins, everything else (duplicate delivery, late
// results after reassignment) is counted and dropped. claimed is nil
// for worker results; for a coordinator-produced outcome it is the
// task the local solver claimed, and the outcome is accepted only into
// that task.
func (c *Coordinator) acceptOutcome(taskID, worker string, out Outcome, claimed *task) bool {
	local := claimed != nil
	c.mu.Lock()
	t, ok := c.tasks[taskID]
	if !ok || (local && t != claimed) {
		if c.done[taskID] || local {
			// The task already has its one outcome: a transport-level
			// duplicate, a result that lost the race to a local
			// fallback, or a local solve whose task a worker answered
			// first (the fingerprint may since have been resubmitted as
			// a new task).
			c.metrics.DupResults++
		} else {
			c.metrics.LateResults++
		}
		c.mu.Unlock()
		return false
	}
	holder := t.state == "leased" && t.worker == worker
	if !local && !holder && (t.state != "done" || out.Error != "") {
		// The worker lost its lease (expired and requeued) but the
		// result still arrived. Accepting it would race the redispatched
		// copy, so only a verdict for a task already claimed by a local
		// solve is taken. Count it; the redispatch will answer.
		c.metrics.LateResults++
		c.mu.Unlock()
		return false
	}
	if out.Error != "" && !local {
		// The check failed to run on the worker: treat as a lost
		// lease — requeue with backoff (or fall back locally).
		t.failedBy[worker] = true
		claim := c.requeueLocked(t, time.Now())
		c.mu.Unlock()
		if claim {
			c.solveLocally(t)
		}
		return false
	}
	t.state = "done"
	t.outcome = out
	t.from = worker
	c.metrics.TasksCompleted++
	c.done[taskID] = true
	delete(c.tasks, taskID)

	// Journal before waking the waiters: a crash after this line
	// replays the outcome instead of re-running the check. A failed
	// write degrades recovery, not the verdict.
	if c.journal != nil {
		_ = c.journal.WriteOutcome(t)
	}
	close(t.done)
	c.mu.Unlock()
	return true
}

// ---- HTTP surface ----------------------------------------------------

// Handler returns the coordinator's HTTP API: POST /fleet/v1/poll,
// /fleet/v1/heartbeat, /fleet/v1/result.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet/v1/poll", c.handlePoll)
	mux.HandleFunc("/fleet/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/fleet/v1/result", c.handleResult)
	return mux
}

func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req PollRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if req.Worker == "" {
		http.Error(w, "worker id required", http.StatusBadRequest)
		return
	}
	resp := c.Poll(req.Worker)
	w.Header().Set("Content-Type", "application/json")
	if resp.Task == nil && resp.RetryAfterMS >= 1000 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", resp.RetryAfterMS/1000))
	}
	json.NewEncoder(w).Encode(resp)
}

// Poll leases the calling worker the first dispatchable task in the
// queue, or answers with a retry hint.
func (c *Coordinator) Poll(worker string) PollResponse {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, t := range c.queue {
		if now.Before(t.nextAt) {
			continue
		}
		// A worker that already failed this task is excluded only while
		// the task is fresh in the queue — a grace of one lease past its
		// backoff. After that anyone may retry it: otherwise a fleet
		// whose every worker failed the task would starve it instead of
		// draining the retry budget into the local fallback.
		if t.failedBy[worker] && now.Before(t.nextAt.Add(c.cfg.lease())) {
			continue
		}
		c.queue = slices.Delete(c.queue, i, i+1)
		t.state = "leased"
		t.worker = worker
		t.expires = now.Add(c.cfg.lease())
		c.metrics.TasksDispatched++
		return PollResponse{Task: &Task{
			ID:      t.id,
			Check:   t.check,
			LeaseMS: c.cfg.lease().Milliseconds(),
		}}
	}
	return PollResponse{RetryAfterMS: c.cfg.pollRetryAfter().Milliseconds()}
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if c.Heartbeat(req.Worker, req.TaskID) {
		w.WriteHeader(http.StatusOK)
		return
	}
	http.Error(w, "lease gone", http.StatusGone)
}

// Heartbeat renews the worker's lease on the task; false means the
// lease is gone (expired and reassigned, or the task is finished) and
// the worker should abandon the work.
func (c *Coordinator) Heartbeat(worker, taskID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tasks[taskID]
	if !ok || t.state != "leased" || t.worker != worker {
		return false
	}
	t.expires = time.Now().Add(c.cfg.lease())
	return true
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req ResultRequest
	if !decodeInto(w, r, &req) {
		return
	}
	c.acceptOutcome(req.TaskID, req.Worker, req.Outcome, nil)
	// Both accepted and deduplicated results answer 200: the worker's
	// obligation ends either way (at-least-once delivery semantics).
	w.WriteHeader(http.StatusOK)
}

// QueueDepth reports queued (dispatchable or backing-off) tasks.
func (c *Coordinator) QueueDepth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}
