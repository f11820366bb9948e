package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"checkfence/internal/daemon"
)

// TestExitCodes pins the CLI's exit-code contract: 0 all pass, 1 a
// violation, 2 internal/usage error, 3 budgets exhausted (UNKNOWN),
// with the worst code winning across -model runs (2 > 1 > 3 > 0).
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		want    int
		wantOut string // substring of stdout, "" = don't care
		wantErr string // substring of stderr, "" = don't care
	}{
		{
			name: "usage error",
			args: []string{"-impl", "ms2"},
			want: exitError, wantErr: "usage:",
		},
		{
			name: "unknown implementation",
			args: []string{"-impl", "no-such-impl", "-test", "T0"},
			want: exitError, wantErr: "no-such-impl",
		},
		{
			name: "unknown flag",
			args: []string{"-definitely-not-a-flag"},
			want: exitError,
		},
		{
			name: "list",
			args: []string{"-list"},
			want: exitPass, wantOut: "implementations:",
		},
		{
			name: "pass",
			args: []string{"-impl", "ms2", "-test", "T0", "-model", "sc"},
			want: exitPass, wantOut: "PASS: ms2 / T0 on sc",
		},
		{
			name: "violation",
			args: []string{"-impl", "ms2-nofence", "-test", "T0", "-model", "relaxed"},
			want: exitViolation, wantOut: "FAIL: ms2-nofence / T0 on relaxed",
		},
		{
			name: "budget exhausted",
			args: []string{"-impl", "snark", "-test", "Da", "-model", "relaxed", "-timeout", "30ms"},
			want: exitUnknown, wantOut: "UNKNOWN: snark / Da on relaxed",
		},
		{
			// The wire record carries no observation set, so a remote
			// run could never print one.
			name: "remote show-spec",
			args: []string{"-remote", "http://127.0.0.1:1", "-impl", "ms2", "-test", "T0", "-show-spec"},
			want: exitError, wantErr: "-show-spec and -stats need a local run; they cannot be combined with -remote",
		},
		{
			name: "violation outranks pass",
			args: []string{"-impl", "ms2-nofence", "-test", "T0", "-model", "serial,relaxed"},
			want: exitViolation,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(tc.args, &stdout, &stderr)
			if got != tc.want {
				t.Errorf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					got, tc.want, stdout.String(), stderr.String())
			}
			if tc.wantOut != "" && !strings.Contains(stdout.String(), tc.wantOut) {
				t.Errorf("stdout missing %q:\n%s", tc.wantOut, stdout.String())
			}
			if tc.wantErr != "" && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("stderr missing %q:\n%s", tc.wantErr, stderr.String())
			}
		})
	}
}

// TestSeverityOrder locks the worst-code-wins ordering itself.
func TestSeverityOrder(t *testing.T) {
	order := []int{exitError, exitViolation, exitUnknown, exitPass}
	for i := 0; i < len(order)-1; i++ {
		if severity(order[i]) <= severity(order[i+1]) {
			t.Errorf("severity(%d) = %d not above severity(%d) = %d",
				order[i], severity(order[i]), order[i+1], severity(order[i+1]))
		}
	}
}

// TestUnknownReportsRungs: the UNKNOWN report names the configured
// budget and, on one line, the cause that stopped the check.
func TestUnknownReportsRungs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	got := run([]string{"-impl", "snark", "-test", "Da", "-timeout", "30ms"}, &stdout, &stderr)
	if got != exitUnknown {
		t.Fatalf("exit = %d, want %d\nstderr: %s", got, exitUnknown, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "budgets: timeout 30ms") {
		t.Errorf("report missing budget line:\n%s", out)
	}
	if !strings.Contains(out, "\n  cause: deadline\n") {
		t.Errorf("report missing the cause line:\n%s", out)
	}
	if strings.Contains(out, "rung ") {
		t.Errorf("report has rung lines:\n%s", out)
	}
}

// TestBackendRFRejected: -backend rf is a usage error (exit 2) whose
// message names the backends there are; auto already routes litmus
// programs to the reads-from engine.
func TestBackendRFRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	got := run([]string{"-impl", "ms2", "-test", "T0", "-model", "sc", "-backend", "rf"}, &stdout, &stderr)
	if got != exitError {
		t.Fatalf("exit = %d, want %d\nstdout: %s", got, exitError, stdout.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, "auto") || !strings.Contains(msg, "sat") {
		t.Errorf("stderr %q does not name auto and sat", msg)
	}
}

// TestStatsReportsMemory: -stats prints the check's heap allocation.
func TestStatsReportsMemory(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-impl", "ms2", "-test", "T0", "-model", "sc", "-stats"}, &stdout, &stderr); got != exitPass {
		t.Fatalf("exit = %d, want %d\nstderr: %s", got, exitPass, stderr.String())
	}
	m := regexp.MustCompile(`(?m)^memory: ([0-9.]+) MB allocated$`).FindStringSubmatch(stdout.String())
	if m == nil {
		t.Fatalf("-stats output has no memory line:\n%s", stdout.String())
	}
	if mb, err := strconv.ParseFloat(m[1], 64); err != nil || mb <= 0 {
		t.Errorf("memory line reports %q MB, want a positive number", m[1])
	}
}

// TestRemoteMatchesLocal: -remote against a live daemon must print
// the same output and exit code as a local run. The daemon streams
// multi-model verdicts in completion order, so per-model blocks are
// compared sorted.
func TestRemoteMatchesLocal(t *testing.T) {
	srv := daemon.NewServer(daemon.Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	blocks := func(out string) []string {
		b := strings.Split(out, "\n\n")
		sort.Strings(b)
		return b
	}
	for _, tc := range []struct {
		args []string
		exit int
	}{
		{[]string{"-impl", "msn", "-test", "T0", "-model", "sc,tso"}, exitPass},
		{[]string{"-impl", "msn-nofence", "-test", "T0", "-model", "relaxed"}, exitViolation},
		{[]string{"-impl", "harris", "-test", "Saa", "-conflicts", "1"}, exitUnknown},
	} {
		var lout, lerr, rout, rerr bytes.Buffer
		local := run(tc.args, &lout, &lerr)
		remote := run(append([]string{"-remote", ts.URL}, tc.args...), &rout, &rerr)
		if local != tc.exit || remote != tc.exit {
			t.Fatalf("%v: local exit %d, remote exit %d, want %d\nremote stderr: %s",
				tc.args, local, remote, tc.exit, rerr.String())
		}
		if !slices.Equal(blocks(lout.String()), blocks(rout.String())) {
			t.Errorf("%v: outputs differ\nlocal:\n%s\nremote:\n%s", tc.args, lout.String(), rout.String())
		}
	}
}

// TestRemoteCarriesSweep: -sweep off must reach the daemon in the
// submitted batch, not only the local scheduler.
func TestRemoteCarriesSweep(t *testing.T) {
	var got daemon.BatchRequest
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		io.WriteString(w, `{"type":"batch","id":"b1","jobs":["b1-0"]}`+"\n"+
			`{"type":"result","id":"b1-0","index":0,"impl":"ms2","test":"T0","model":"sc","verdict":"pass","pass":true}`+"\n"+
			`{"type":"done","pass":1,"fail":0,"unknown":0,"errors":0,"elapsed":"1ms"}`+"\n")
	}))
	defer ts.Close()

	var stdout, stderr bytes.Buffer
	args := []string{"-remote", ts.URL, "-impl", "ms2", "-test", "T0", "-model", "sc,tso", "-sweep", "off"}
	if code := run(args, &stdout, &stderr); code != exitPass {
		t.Fatalf("exit = %d, want %d\nstderr: %s", code, exitPass, stderr.String())
	}
	if len(got.Jobs) != 1 || got.Jobs[0].Sweep != "off" {
		t.Fatalf("posted batch %+v, want one job with sweep off", got)
	}
}

// TestRemoteRetriesSaturatedDaemon: a 503 + Retry-After submission must
// be retried, not surfaced as a failure.
func TestRemoteRetriesSaturatedDaemon(t *testing.T) {
	srv := daemon.NewServer(daemon.Config{})
	var rejected atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/check" && rejected.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "admission gate saturated", http.StatusServiceUnavailable)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer proxy.Close()

	var stdout, stderr bytes.Buffer
	got := run([]string{"-remote", proxy.URL, "-impl", "ms2", "-test", "T0", "-model", "sc"}, &stdout, &stderr)
	if got != exitPass {
		t.Fatalf("exit = %d, want %d\nstderr: %s", got, exitPass, stderr.String())
	}
	if rejected.Load() < 2 {
		t.Fatalf("daemon saw %d submissions, want a retry after the 503", rejected.Load())
	}
	if !strings.Contains(stdout.String(), "PASS:") {
		t.Errorf("missing PASS line:\n%s", stdout.String())
	}
}
