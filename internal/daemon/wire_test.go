package daemon

import (
	"bufio"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden NDJSON files under testdata")

// totalTime matches the one timing-dependent field of a result line.
var totalTime = regexp.MustCompile(`"total_time":"[^"]*"`)

// resultLines posts a batch to a fresh single-worker server and
// returns its raw "result" lines, total_time masked.
func resultLines(t *testing.T, body string) []string {
	t.Helper()
	ts := httptest.NewServer(NewServer(Config{Parallelism: 1}))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/check", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/check: %s", resp.Status)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, `{"type":"result"`) {
			lines = append(lines, totalTime.ReplaceAllString(line, `"total_time":"T"`))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestResultLineWire pins the NDJSON bytes of the four kinds of result
// line a client can receive: a pass, a fail with its counterexample, a
// sequential bug and a check that failed to run.
func TestResultLineWire(t *testing.T) {
	var got []string
	for _, body := range []string{
		`{"jobs":[{"program":{"name":"ms2"},"test":"T0","model":"sc"}]}`,
		`{"jobs":[{"program":{"name":"msn-nofence"},"test":"T0","model":"relaxed"}]}`,
		`{"jobs":[{"program":{"name":"lazylist-bug"},"test":"Sac","model":"sc"}]}`,
		`{"jobs":[{"program":{"name":"broken","source":"int f( {","init_func":"init","object":"q","kind":"queue",` +
			`"ops":[{"mnemonic":"e","func":"f","num_args":1},{"mnemonic":"d","func":"g","has_ret":true}]},` +
			`"test":"T0","model":"sc"}]}`,
	} {
		lines := resultLines(t, body)
		if len(lines) != 1 {
			t.Fatalf("%s: %d result lines, want 1", body, len(lines))
		}
		got = append(got, lines[0])
	}
	checkGolden(t, "result_lines.ndjson", strings.Join(got, "\n")+"\n")
}

// TestResultLineBudget pins the budget object of a result that ran out
// of budget: the configured limits and the cause that stopped it.
func TestResultLineBudget(t *testing.T) {
	lines := resultLines(t, `{"jobs":[{"program":{"name":"harris"},"test":"Saa","model":"relaxed","conflict_budget":1}]}`)
	if len(lines) != 1 {
		t.Fatalf("%d result lines, want 1", len(lines))
	}
	checkGolden(t, "budget_line.ndjson", lines[0]+"\n")
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("result lines differ from %s:\n got: %s\nwant: %s", path, got, want)
	}
}
