package main

// retryClient is the poll path's HTTP client policy: per-request
// timeouts so a partitioned daemon cannot hang the caller, retry with
// exponential backoff plus jitter on transient failures (connection
// errors, 5xx, 429), and honoring of Retry-After hints so a saturated
// server shapes its own load instead of being hammered.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// retryClient fetches JSON with bounded retries over
// http.DefaultClient. The zero value is the default policy; tests
// shorten it.
type retryClient struct {
	// retries is the number of re-attempts after the first try
	// (0 = 4; negative disables retries).
	retries int
	// baseDelay seeds the exponential backoff (0 = 100ms).
	baseDelay time.Duration
	// maxDelay caps one backoff step (0 = 5s).
	maxDelay time.Duration
	// timeout bounds each individual request attempt (0 = 30s).
	timeout time.Duration
}

func (c *retryClient) retryBudget() int {
	if c.retries == 0 {
		return 4
	}
	if c.retries < 0 {
		return 0
	}
	return c.retries
}

func (c *retryClient) attemptTimeout() time.Duration {
	if c.timeout <= 0 {
		return 30 * time.Second
	}
	return c.timeout
}

// backoff returns the sleep before re-attempt n (1-based): an
// exponential of baseDelay capped at maxDelay, with up to 50% added
// jitter so concurrent retrying clients decorrelate.
func (c *retryClient) backoff(n int) time.Duration {
	base, max := c.baseDelay, c.maxDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base << uint(n-1)
	if d > max || d <= 0 {
		d = max
	}
	// The global rand source is concurrency-safe; per-client state
	// would make retryClient uncopyable for no benefit.
	jitter := time.Duration(rand.Int63n(int64(d)/2 + 1))
	return d + jitter
}

// statusError is a non-2xx terminal response: the status and (briefly)
// the body, so callers can branch on the code.
type statusError struct {
	Code int
	Body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("http %d: %s", e.Code, e.Body)
}

// retryableStatus reports whether a status merits another attempt:
// throttling and server-side failures do, everything else is terminal.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// retryAfter extracts a Retry-After hint in seconds (0 when absent or
// unparsable; HTTP-date forms are ignored — the backoff covers them).
func retryAfter(resp *http.Response) time.Duration {
	s := resp.Header.Get("Retry-After")
	if s == "" {
		return 0
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0
	}
	return time.Duration(n) * time.Second
}

// getJSON fetches url and decodes the 2xx response into out (skipped
// when out is nil). Transient failures are retried with backoff until
// the budget or ctx runs out; a server-provided Retry-After extends the
// backoff step. Terminal non-2xx responses return a *statusError.
func (c *retryClient) getJSON(ctx context.Context, url string, out any) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return fmt.Errorf("%w (last attempt: %v)", err, lastErr)
			}
			return err
		}
		wait, err := c.attempt(ctx, url, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if wait < 0 || attempt >= c.retryBudget() {
			return err
		}
		backoff := c.backoff(attempt + 1)
		if wait > backoff {
			backoff = wait
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return fmt.Errorf("%w (last attempt: %v)", ctx.Err(), lastErr)
		}
	}
}

// attempt runs one request. The returned duration is a server
// Retry-After hint (>= 0 when the error is retryable, < 0 terminal).
func (c *retryClient) attempt(ctx context.Context, url string, out any) (time.Duration, error) {
	rctx, cancel := context.WithTimeout(ctx, c.attemptTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
	if err != nil {
		return -1, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err // network-level: retryable
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		serr := &statusError{Code: resp.StatusCode, Body: trimBody(b)}
		if retryableStatus(resp.StatusCode) {
			return retryAfter(resp), serr
		}
		return -1, serr
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return -1, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return -1, fmt.Errorf("decoding %s response: %w", url, err)
	}
	return -1, nil
}

// trimBody trims a response body for error messages.
func trimBody(b []byte) string {
	s := string(bytes.TrimSpace(b))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}
