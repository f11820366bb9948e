package fleet

// The fleet worker: a pull loop that polls the coordinator for check
// tasks, executes them through the ordinary core pipeline, heartbeats
// its lease while computing, and reports the outcome. The worker holds
// no authoritative state — crashing one at any point loses at most a
// lease, which the coordinator's janitor reclaims.
//
// The network fault sites (faultinject.NetworkSites) hook the loop at
// the exact points the real failures would strike:
//
//	FleetWorkerCrash    — after taking the lease, before any result:
//	                      the task is abandoned silently (no heartbeat,
//	                      no report), like a process crash.
//	FleetStallHeartbeat — the heartbeat loop never starts; the compute
//	                      continues and the result arrives after the
//	                      lease is gone (the coordinator must reject
//	                      it as late).
//	FleetDropResult     — the finished result is discarded instead of
//	                      posted (reply-path partition).
//	FleetDupResult      — the result is posted twice (at-least-once
//	                      transport retry); the coordinator must
//	                      deduplicate.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"checkfence/internal/core"
	"checkfence/internal/faultinject"
)

// WorkerConfig configures a fleet worker.
type WorkerConfig struct {
	// ID identifies the worker to the coordinator (lease
	// bookkeeping). Required.
	ID string
	// URL is the coordinator base URL ("http://host:port"). Required
	// unless Local is set.
	URL string
	// Local short-circuits HTTP: the worker calls the coordinator
	// in-process (tests, and the coordinator's own embedded workers).
	Local *Coordinator
	// Client is the HTTP policy (zero value = defaults).
	Client RetryClient
	// PollInterval is the idle re-poll period when the coordinator has
	// no work and sent no hint (0 = 250ms).
	PollInterval time.Duration
	// SpecCacheDir enables the worker's on-disk observation-set cache.
	SpecCacheDir string
	// Faults arms the network fault sites (chaos tests only).
	Faults faultinject.Faults
}

func (c WorkerConfig) pollInterval() time.Duration {
	if c.PollInterval <= 0 {
		return 250 * time.Millisecond
	}
	return c.PollInterval
}

// WorkerStats counts one worker's activity.
type WorkerStats struct {
	Polled    int64 // tasks received
	Completed int64 // results posted
	Abandoned int64 // tasks dropped (crash/stall/drop faults, lost leases)
}

// Worker runs the pull loop. Create with NewWorker, run with Run.
type Worker struct {
	cfg   WorkerConfig
	cache *core.SpecCache

	polled    atomic.Int64
	completed atomic.Int64
	abandoned atomic.Int64
}

// NewWorker validates the config and builds a worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("fleet: worker needs an ID")
	}
	if cfg.URL == "" && cfg.Local == nil {
		return nil, fmt.Errorf("fleet: worker needs a coordinator URL")
	}
	return &Worker{cfg: cfg, cache: core.NewSpecCache(cfg.SpecCacheDir)}, nil
}

// Stats returns a snapshot of the worker's counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Polled:    w.polled.Load(),
		Completed: w.completed.Load(),
		Abandoned: w.abandoned.Load(),
	}
}

// Run polls, executes, and reports until ctx is cancelled.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := w.poll(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// The retry client already backed off; pause and re-poll.
			if !sleep(ctx, w.cfg.pollInterval()) {
				return ctx.Err()
			}
			continue
		}
		if resp.Task == nil {
			wait := w.cfg.pollInterval()
			if resp.RetryAfterMS > 0 {
				wait = time.Duration(resp.RetryAfterMS) * time.Millisecond
			}
			if !sleep(ctx, wait) {
				return ctx.Err()
			}
			continue
		}
		w.polled.Add(1)
		w.runTask(ctx, resp.Task)
	}
}

// runTask executes one leased task with heartbeat renewal and fault
// hooks.
func (w *Worker) runTask(ctx context.Context, t *Task) {
	if w.fire(faultinject.FleetWorkerCrash) {
		// Simulated process crash: the lease dies with us.
		w.abandoned.Add(1)
		return
	}

	// Heartbeat while computing; a 410 means the lease is gone
	// (expired and requeued) — cancel the solve and abandon, so the
	// redispatched copy does not race a late result.
	leaseLost := make(chan struct{})
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	stalled := w.fire(faultinject.FleetStallHeartbeat)
	if stalled {
		close(hbDone)
	} else {
		go w.heartbeatLoop(ctx, t, leaseLost, hbStop, hbDone)
	}

	out := w.execute(ctx, t, leaseLost)
	close(hbStop)
	<-hbDone

	select {
	case <-leaseLost:
		w.abandoned.Add(1)
		return
	default:
	}
	if w.fire(faultinject.FleetDropResult) {
		w.abandoned.Add(1)
		return
	}
	if err := w.report(ctx, t, out); err != nil {
		w.abandoned.Add(1)
		return
	}
	w.completed.Add(1)
	if w.fire(faultinject.FleetDupResult) {
		w.report(ctx, t, out) // duplicate delivery; dedup absorbs it
	}
}

// heartbeatLoop renews the lease every third of it. A terminal 410
// closes leaseLost.
func (w *Worker) heartbeatLoop(ctx context.Context, t *Task, leaseLost, stop, done chan struct{}) {
	defer close(done)
	period := t.leaseDuration() / 3
	if period <= 0 {
		period = time.Second
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-tick.C:
			if !w.heartbeat(ctx, t) {
				close(leaseLost)
				return
			}
		}
	}
}

// execute runs the task's check through the ordinary pipeline. A
// closed leaseLost channel aborts the solve at its next check point.
func (w *Worker) execute(ctx context.Context, t *Task, leaseLost <-chan struct{}) Outcome {
	dctx, cancel := cancelOn(ctx, leaseLost)
	defer cancel()
	return runCheck(t.Check, core.SuiteOptions{Context: dctx, SpecCache: w.cache})
}

// cancelOn derives a context cancelled when extra closes. The caller
// must call the returned cancel to release the relay goroutine.
func cancelOn(ctx context.Context, extra <-chan struct{}) (context.Context, context.CancelFunc) {
	dctx, cancel := context.WithCancel(ctx)
	go func() {
		select {
		case <-extra:
			cancel()
		case <-dctx.Done():
		}
	}()
	return dctx, cancel
}

func (w *Worker) fire(site faultinject.Site) bool {
	return w.cfg.Faults != nil && w.cfg.Faults.Fire(site)
}

// ---- transport (HTTP or in-process) ----------------------------------

func (w *Worker) poll(ctx context.Context) (PollResponse, error) {
	if w.cfg.Local != nil {
		return w.cfg.Local.Poll(w.cfg.ID), nil
	}
	var resp PollResponse
	err := w.cfg.Client.PostJSON(ctx, w.cfg.URL+"/fleet/v1/poll",
		PollRequest{Worker: w.cfg.ID}, &resp)
	return resp, err
}

func (w *Worker) heartbeat(ctx context.Context, t *Task) bool {
	if w.cfg.Local != nil {
		return w.cfg.Local.Heartbeat(w.cfg.ID, t.ID)
	}
	err := w.cfg.Client.PostJSON(ctx, w.cfg.URL+"/fleet/v1/heartbeat",
		HeartbeatRequest{Worker: w.cfg.ID, TaskID: t.ID}, nil)
	if err == nil {
		return true
	}
	var serr *StatusError
	if errors.As(err, &serr) && serr.Code == 410 {
		return false
	}
	// Transient failure: keep computing, the next beat may get
	// through before the lease expires.
	return true
}

func (w *Worker) report(ctx context.Context, t *Task, out Outcome) error {
	if w.cfg.Local != nil {
		w.cfg.Local.acceptOutcome(t.ID, w.cfg.ID, out, nil)
		return nil
	}
	return w.cfg.Client.PostJSON(ctx, w.cfg.URL+"/fleet/v1/result",
		ResultRequest{Worker: w.cfg.ID, TaskID: t.ID, Outcome: out}, nil)
}

// sleep waits d or until ctx is done; false on cancellation.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
