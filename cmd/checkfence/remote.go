package main

// Remote mode: -remote URL submits the checks to a running checkfenced
// daemon instead of solving them in-process, and renders the streamed
// NDJSON verdicts with the same exit-code contract as local runs.
//
// The client path is built to survive a flaky daemon or network:
//
//   - Submission retries with exponential backoff plus jitter on
//     connection errors and 5xx, and honors Retry-After when the
//     daemon sheds load (503 "admission gate saturated").
//   - The verdict stream has no overall timeout (solves take as long
//     as they take) but a response-header timeout, so a hung daemon
//     fails fast instead of hanging the CLI.
//   - If the stream breaks after the batch was admitted, the client
//     falls back to polling GET /v1/jobs/{id} for the verdicts it has
//     not yet seen (the daemon finishes admitted batches even when the
//     submitting connection dies); polls ride retryClient with
//     per-request timeouts and the same backoff policy.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"checkfence/internal/daemon"
)

// remoteRunner holds the wiring of one remote submission.
type remoteRunner struct {
	base   string // daemon base URL, no trailing slash
	client *http.Client
	poll   retryClient
	out    printer
}

// runRemote submits the batch to the daemon unchanged and reports
// each verdict, returning the process exit code.
func runRemote(base string, req *daemon.BatchRequest, stdout, stderr io.Writer) int {
	r := &remoteRunner{
		base: strings.TrimRight(base, "/"),
		client: &http.Client{
			// No overall timeout: the response streams for as long as
			// the solves run. A header timeout still bounds a daemon
			// that accepts the connection and then hangs.
			Transport: &http.Transport{ResponseHeaderTimeout: 30 * time.Second},
		},
		out: printer{stdout: stdout, stderr: stderr},
	}
	exit, err := r.run(context.Background(), req)
	if err != nil {
		fmt.Fprintln(stderr, "checkfence:", err)
		return exitError
	}
	return exit
}

// run submits the batch and consumes verdicts, falling back to the
// poll path on a broken stream.
func (r *remoteRunner) run(ctx context.Context, req *daemon.BatchRequest) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return exitError, err
	}
	resp, err := r.submit(ctx, body)
	if err != nil {
		return exitError, err
	}
	defer resp.Body.Close()

	var ids []string
	seen := map[string]bool{}
	emit := func(line *daemon.ResultLine) {
		if !seen[line.ID] {
			seen[line.ID] = true
			r.out.print(line.Result, nil)
		}
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	streamDone := false
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &head); err != nil {
			continue
		}
		switch head.Type {
		case "batch":
			var b daemon.BatchLine
			if err := json.Unmarshal(raw, &b); err == nil {
				ids = b.Jobs
			}
		case "result":
			var line daemon.ResultLine
			if err := json.Unmarshal(raw, &line); err == nil {
				emit(&line)
			}
		case "done":
			streamDone = true
		}
	}
	if err := sc.Err(); err != nil && !streamDone {
		fmt.Fprintf(r.out.stderr, "checkfence: verdict stream broken (%v), polling for remaining jobs\n", err)
	}
	if streamDone && len(seen) >= len(ids) {
		return r.out.exit, nil
	}
	if len(ids) == 0 {
		// The stream died before the batch header: nothing admitted
		// that we know of, so there is nothing to poll for.
		return exitError, fmt.Errorf("verdict stream ended before the batch was acknowledged")
	}
	// The batch was admitted; collect the verdicts we missed by
	// polling. The daemon hints Retry-After: 1 while a job runs.
	for _, id := range ids {
		if seen[id] {
			continue
		}
		line, err := r.pollJob(ctx, id)
		if err != nil {
			fmt.Fprintf(r.out.stderr, "checkfence: polling job %s: %v\n", id, err)
			r.out.bump(exitError)
			continue
		}
		emit(line)
	}
	return r.out.exit, nil
}

// submit posts the batch, retrying with backoff on transient failures
// and honoring the daemon's Retry-After when it sheds load. Returns
// the open streaming response.
func (r *remoteRunner) submit(ctx context.Context, body []byte) (*http.Response, error) {
	policy := retryClient{baseDelay: 200 * time.Millisecond}
	var lastErr error
	var hint time.Duration // the last response's Retry-After
	for attempt := 0; attempt <= policy.retryBudget(); attempt++ {
		if attempt > 0 {
			d := max(policy.backoff(attempt), hint)
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			r.base+"/v1/check", strings.NewReader(string(body)))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := r.client.Do(req)
		if err != nil {
			lastErr, hint = err, 0
			continue
		}
		if resp.StatusCode >= 200 && resp.StatusCode <= 299 {
			return resp, nil
		}
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		serr := &statusError{Code: resp.StatusCode, Body: trimBody(b)}
		if !retryableStatus(resp.StatusCode) {
			return nil, serr
		}
		lastErr, hint = serr, retryAfter(resp)
	}
	return nil, fmt.Errorf("submitting batch: %w", lastErr)
}

// pollJob polls GET /v1/jobs/{id} until the job is done. Transport
// failures within one poll ride retryClient's backoff; between
// polls the client sleeps the daemon's hinted second.
func (r *remoteRunner) pollJob(ctx context.Context, id string) (*daemon.ResultLine, error) {
	url := r.base + "/v1/jobs/" + id
	for {
		var st daemon.JobStatus
		if err := r.poll.getJSON(ctx, url, &st); err != nil {
			return nil, err
		}
		if st.State == "done" && st.Result != nil {
			return st.Result, nil
		}
		select {
		case <-time.After(time.Second):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
