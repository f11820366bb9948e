package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetryClientRetriesTransient: 5xx responses are retried until the
// server recovers, and the eventual 2xx body is decoded.
func TestRetryClientRetriesTransient(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			http.Error(w, "try later", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(map[string]string{"ok": "yes"})
	}))
	defer ts.Close()

	c := retryClient{baseDelay: time.Millisecond, maxDelay: 5 * time.Millisecond}
	var out map[string]string
	if err := c.getJSON(context.Background(), ts.URL, &out); err != nil {
		t.Fatalf("getJSON: %v", err)
	}
	if out["ok"] != "yes" {
		t.Fatalf("decoded %v, want ok=yes", out)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 failures + success)", got)
	}
}

// TestRetryClientHonorsRetryAfter: a 503 with Retry-After must stretch
// the backoff to at least the server's hint.
func TestRetryClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "saturated", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	c := retryClient{baseDelay: time.Millisecond, maxDelay: 2 * time.Millisecond}
	start := time.Now()
	if err := c.getJSON(context.Background(), ts.URL, nil); err != nil {
		t.Fatalf("getJSON: %v", err)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("retried after %v, want >= 1s (the Retry-After hint)", elapsed)
	}
}

// TestRetryClient410Terminal: a 4xx such as 410 Gone must not be
// retried and must surface as a typed statusError.
func TestRetryClient410Terminal(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "gone", http.StatusGone)
	}))
	defer ts.Close()

	c := retryClient{baseDelay: time.Millisecond}
	err := c.getJSON(context.Background(), ts.URL, nil)
	var serr *statusError
	if !errors.As(err, &serr) || serr.Code != http.StatusGone {
		t.Fatalf("error = %v, want *statusError with code 410", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("terminal 410 was retried: %d calls", got)
	}
}

// TestRetryClientPerRequestTimeout: a hung server must fail the
// attempt at the per-request timeout, not hang the caller.
func TestRetryClientPerRequestTimeout(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Far longer than the client's per-request timeout, but bounded
		// so the test server can close.
		time.Sleep(2 * time.Second)
	}))
	defer ts.Close()

	c := retryClient{timeout: 50 * time.Millisecond, retries: -1}
	start := time.Now()
	err := c.getJSON(context.Background(), ts.URL, nil)
	if err == nil {
		t.Fatal("getJSON against a hung server succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("timeout took %v, want ~50ms", elapsed)
	}
}

// TestGetJSONPollPath: the poll path (GET /v1/jobs/{id}) sends GET
// and retries a transient gateway error.
func TestGetJSONPollPath(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET expected", http.StatusMethodNotAllowed)
			return
		}
		if calls.Add(1) == 1 {
			http.Error(w, "blip", http.StatusBadGateway)
			return
		}
		json.NewEncoder(w).Encode(map[string]string{"state": "done"})
	}))
	defer ts.Close()

	c := retryClient{baseDelay: time.Millisecond, maxDelay: 2 * time.Millisecond}
	var out map[string]string
	if err := c.getJSON(context.Background(), ts.URL, &out); err != nil {
		t.Fatalf("getJSON: %v", err)
	}
	if out["state"] != "done" {
		t.Fatalf("decoded %v, want state=done", out)
	}
}
