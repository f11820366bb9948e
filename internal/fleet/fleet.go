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
	"bytes"
	"strings"
	"time"

	"checkfence/internal/core"
	"checkfence/internal/job"
	"checkfence/internal/spec"
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

// Outcome is the serializable subset of core.Result a worker reports:
// everything the daemon's wire rendering needs. The observation set
// rides as its deterministic text serialization (spec.Set.WriteTo),
// so it can be compared byte-for-byte with a serial run.
type Outcome struct {
	Verdict string `json:"verdict"` // "pass" | "fail" | "unknown"
	Pass    bool   `json:"pass"`
	SeqBug  bool   `json:"seq_bug,omitempty"`
	// Cex is the rendered counterexample trace (FAIL only).
	Cex string `json:"cex,omitempty"`
	// Spec is the mined observation set, serialized.
	Spec string `json:"spec,omitempty"`
	// Err is set when the check failed to run (an internal error, not
	// a verdict); the coordinator treats it as a task failure.
	Err string `json:"error,omitempty"`

	BoundRounds    int          `json:"bound_rounds,omitempty"`
	ObsSetSize     int          `json:"obs_set_size,omitempty"`
	Backend        string       `json:"backend,omitempty"`
	RouterDecision string       `json:"router_decision,omitempty"`
	MineIterations int          `json:"mine_iterations,omitempty"`
	CNFVars        int          `json:"cnf_vars,omitempty"`
	CNFClauses     int          `json:"cnf_clauses,omitempty"`
	TotalTime      job.Duration `json:"total_time,omitempty"`
	// Budget summarizes resource-governance degradation on the worker
	// (ladder rungs exhausted before the verdict), one line per rung.
	Budget []string `json:"budget,omitempty"`
	// Degraded names the fleet-level degradation that produced this
	// outcome, when any ("local-fallback"). Set by the coordinator,
	// never by workers.
	Degraded string `json:"degraded,omitempty"`
}

// OutcomeFromResult renders a core result (or run error) as the wire
// outcome.
func OutcomeFromResult(res *core.Result, err error) Outcome {
	if err != nil {
		return Outcome{Err: err.Error()}
	}
	st := res.Stats
	o := Outcome{
		Verdict:        res.Verdict.String(),
		Pass:           res.Pass,
		SeqBug:         res.SeqBug,
		BoundRounds:    st.BoundRounds,
		ObsSetSize:     st.ObsSetSize,
		Backend:        st.Backend,
		RouterDecision: st.RouterDecision,
		MineIterations: st.MineIterations,
		CNFVars:        st.CNFVars,
		CNFClauses:     st.CNFClauses,
		TotalTime:      job.Duration(st.TotalTime),
	}
	if res.Cex != nil {
		o.Cex = res.Cex.String()
	}
	if res.Spec != nil {
		var b bytes.Buffer
		if _, werr := res.Spec.WriteTo(&b); werr == nil {
			o.Spec = b.String()
		}
	}
	if res.Budget != nil {
		for _, r := range res.Budget.Rungs {
			desc := r.Name
			if r.Budget != "" {
				desc += " (" + r.Budget + ")"
			}
			o.Budget = append(o.Budget, desc)
		}
	}
	return o
}

// SpecSet parses the outcome's serialized observation set (nil when
// absent or unparsable).
func (o *Outcome) SpecSet() *spec.Set {
	if o.Spec == "" {
		return nil
	}
	s, err := spec.ReadSet(strings.NewReader(o.Spec))
	if err != nil {
		return nil
	}
	return s
}

// leaseDuration converts the wire lease field.
func (t *Task) leaseDuration() time.Duration {
	return time.Duration(t.LeaseMS) * time.Millisecond
}
