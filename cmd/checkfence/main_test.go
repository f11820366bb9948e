package main

import (
	"bytes"
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
		errs    int    // number of stderr lines, 0 = don't care
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
			// One description, validated once: the error is the
			// job's, and four models do not repeat it.
			name: "unknown implementation, four models",
			args: []string{"-impl", "no-such-impl", "-test", "T0", "-model", "sc,tso,pso,relaxed"},
			want: exitError, wantErr: "no-such-impl", errs: 1,
		},
		{
			name: "unknown spec source",
			args: []string{"-impl", "ms2", "-test", "T0", "-spec", "bogus"},
			want: exitError, wantErr: `unknown spec source "bogus"`,
		},
		{
			name: "unknown flag",
			args: []string{"-definitely-not-a-flag"},
			want: exitError,
		},
		{
			// A multi-model run always sweeps: there is no switch.
			name: "no sweep flag",
			args: []string{"-impl", "ms2", "-test", "T0", "-sweep", "off"},
			want: exitError, wantErr: "flag provided but not defined: -sweep",
		},
		{
			// Every counterexample is validated: there is no switch.
			name: "no validate flag",
			args: []string{"-impl", "ms2", "-test", "T0", "-validate=false"},
			want: exitError, wantErr: "flag provided but not defined: -validate",
		},
		{
			// Mining is capped by a constant of the spec package.
			name: "no mining cap flag",
			args: []string{"-impl", "ms2", "-test", "T0", "-max-mine-iterations", "5"},
			want: exitError, wantErr: "flag provided but not defined: -max-mine-iterations",
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
			name: "raw test notation",
			args: []string{"-impl", "ms2", "-test", "( e | d )", "-model", "sc"},
			want: exitPass, wantOut: "PASS: ms2 / custom on sc",
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
			if n := strings.Count(stderr.String(), "\n"); tc.errs > 0 && n != tc.errs {
				t.Errorf("stderr has %d lines, want %d:\n%s", n, tc.errs, stderr.String())
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

// TestBackendRFRejected: SAT is the one verdict engine, so -backend
// is no flag at all: naming it, with any value, is a usage error
// (exit 2).
func TestBackendRFRejected(t *testing.T) {
	for _, be := range []string{"rf", "sat"} {
		var stdout, stderr bytes.Buffer
		got := run([]string{"-impl", "ms2", "-test", "T0", "-model", "sc", "-backend", be}, &stdout, &stderr)
		if got != exitError {
			t.Fatalf("-backend %s: exit = %d, want %d\nstdout: %s", be, got, exitError, stdout.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, "flag provided but not defined: -backend") {
			t.Errorf("-backend %s: stderr %q does not reject the flag", be, msg)
		}
	}
}

// TestMemBudgetFlagRejected: a check is bounded by time and conflicts
// alone, so -mem-mb is no flag at all: naming it is a usage error
// (exit 2).
func TestMemBudgetFlagRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	got := run([]string{"-impl", "ms2", "-test", "T0", "-model", "sc", "-mem-mb", "1"}, &stdout, &stderr)
	if got != exitError {
		t.Fatalf("-mem-mb 1: exit = %d, want %d\nstdout: %s", got, exitError, stdout.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, "flag provided but not defined: -mem-mb") {
		t.Errorf("-mem-mb 1: stderr %q does not reject the flag", msg)
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

// TestStatsReportsPreprocessing: -stats says whether the inclusion
// formula's armed preprocessing pass ran. ms2/T0 on Relaxed is decided
// before the pass's conflict threshold; ms2/T54 on Relaxed passes it,
// and its pass shrinks the formula.
func TestStatsReportsPreprocessing(t *testing.T) {
	stats := func(impl, test string, want int) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if got := run([]string{"-impl", impl, "-test", test, "-model", "relaxed", "-stats"}, &stdout, &stderr); got != want {
			t.Fatalf("%s/%s: exit = %d, want %d\nstderr: %s", impl, test, got, want, stderr.String())
		}
		return stdout.String()
	}
	out := stats("ms2", "T0", exitPass)
	if !regexp.MustCompile(`(?m)^preprocessing: not run \(decided in [0-9]+ conflicts\)$`).MatchString(out) {
		t.Errorf("ms2/T0: -stats output has no \"not run\" preprocessing line:\n%s", out)
	}
	out = stats("ms2", "T54", exitPass)
	m := regexp.MustCompile(`(?m)^preprocessing after ([0-9]+) conflicts: ([0-9]+) -> ([0-9]+) clauses in \S+ \([0-9]+ vars eliminated\)$`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("ms2/T54: -stats output has no preprocessing line:\n%s", out)
	}
	n, _ := strconv.Atoi(m[1])
	before, _ := strconv.Atoi(m[2])
	after, _ := strconv.Atoi(m[3])
	if n == 0 || after >= before {
		t.Errorf("ms2/T54: pass after %d conflicts took %d clauses to %d, want a pass during search that shrinks the formula", n, before, after)
	}
}

// TestSpecRefAlias: -spec ref names the refset source, as on the
// wire: the same observation set as -spec refset, enumerated from the
// reference implementation without a single mining iteration.
func TestSpecRefAlias(t *testing.T) {
	outs := map[string]string{}
	for _, src := range []string{"ref", "refset"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-impl", "msn", "-test", "T0", "-model", "sc", "-spec", src, "-show-spec", "-stats"}
		if got := run(args, &stdout, &stderr); got != exitPass {
			t.Fatalf("-spec %s: exit = %d, want %d\nstderr: %s", src, got, exitPass, stderr.String())
		}
		out := stdout.String()
		if !strings.Contains(out, "(mined in 0 iterations)") {
			t.Errorf("-spec %s mined with SAT:\n%s", src, out)
		}
		// -show-spec prints the set ahead of the statistics.
		set, _, _ := strings.Cut(out, "unrolled:")
		if !strings.HasPrefix(set, "observation set (") {
			t.Fatalf("-spec %s: no observation set in:\n%s", src, out)
		}
		outs[src] = set
	}
	if outs["ref"] != outs["refset"] {
		t.Errorf("observation sets differ\nref:\n%s\nrefset:\n%s", outs["ref"], outs["refset"])
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
