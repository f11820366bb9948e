// Package fleet is the fault-tolerant distributed execution layer of
// checkfenced: a coordinator that hands whole checks to pull-based
// workers under time-bounded leases, and the worker loop that executes
// them. A task is one job.Check, identified by its fingerprint; a
// worker runs exactly the core pipeline a serial check runs, so the
// fleet adds capacity across checks, never parallelism inside one.
//
// The design center is fault tolerance, not speed: every failure class
// of a distributed deployment — worker crash, hang, network partition
// on the heartbeat or reply path, duplicate delivery, coordinator
// crash — degrades to slower-but-correct, never to a wrong or lost
// verdict:
//
//   - Dispatch is at-least-once: a check whose lease expires (crashed,
//     hung, or partitioned worker) is requeued with exponential
//     backoff plus jitter. Completion is exactly-once: results are
//     deduplicated on the task identity (the check's fingerprint), so
//     redelivery, duplicate transport delivery, and late results cannot
//     answer a check twice.
//   - A bounded retry budget ends with the coordinator solving the
//     check locally — a verdict is never abandoned.
//   - The coordinator journals accepted outcomes; a restart replays
//     the journal and re-runs only the checks without one.
//
// Why the distributed verdict equals the serial one is argued in
// DESIGN.md; the short form: the accepted outcome is the result of one
// ordinary core check of the same description, whichever process ran
// it.
package fleet

import (
	"strings"
	"time"

	"checkfence/internal/core"
	"checkfence/internal/job"
)

// Task is one leased unit of work: a complete check description.
type Task struct {
	// ID is the dedup identity: the check's fingerprint.
	ID string `json:"id"`
	// Check is the self-contained description the worker executes.
	Check job.Check `json:"check"`
	// LeaseMS is the granted lease in milliseconds: the worker must
	// heartbeat before it elapses or the task is requeued.
	LeaseMS int64 `json:"lease_ms"`
}

// PollRequest is the body of POST /fleet/v1/poll.
type PollRequest struct {
	Worker string `json:"worker"`
}

// PollResponse answers a poll: a task, or none plus a backoff hint.
type PollResponse struct {
	Task *Task `json:"task,omitempty"`
	// RetryAfterMS hints when to poll again when Task is nil.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// HeartbeatRequest is the body of POST /fleet/v1/heartbeat. A 410
// response means the lease is gone (expired and reassigned): the
// worker should abandon the task without reporting.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	TaskID string `json:"task_id"`
}

// ResultRequest is the body of POST /fleet/v1/result.
type ResultRequest struct {
	Worker  string  `json:"worker"`
	TaskID  string  `json:"task_id"`
	Outcome Outcome `json:"outcome"`
}

// Outcome is what a worker reports for one check: the check's wire
// record plus its observation set in the deterministic text
// serialization (spec.Set.WriteTo), so a distributed run can be
// compared byte-for-byte with a serial one. A set Error means the
// check failed to run; the coordinator treats it as a task failure.
type Outcome struct {
	job.Result
	Spec string `json:"spec,omitempty"`
}

// NewOutcome renders one finished suite job as its outcome.
func NewOutcome(r core.SuiteResult) Outcome {
	out := Outcome{Result: job.NewResult(r.Job, r.Res, r.Err)}
	if r.Err == nil && r.Res.Spec != nil {
		var b strings.Builder
		if _, err := r.Res.Spec.WriteTo(&b); err == nil {
			out.Spec = b.String()
		}
	}
	return out
}

// runCheck executes one check description through the ordinary core
// pipeline, alone: the workers' and the local fallback's solve.
func runCheck(ck job.Check, opts core.SuiteOptions) Outcome {
	cj, err := ck.CoreJob()
	if err != nil {
		return Outcome{Result: job.Result{Error: err.Error()}}
	}
	opts.Parallelism = 1
	opts.OnResult = nil
	return NewOutcome(core.RunSuite([]core.Job{cj}, opts)[0])
}

// leaseDuration converts the wire lease field.
func (t *Task) leaseDuration() time.Duration {
	return time.Duration(t.LeaseMS) * time.Millisecond
}
