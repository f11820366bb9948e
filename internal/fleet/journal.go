package fleet

// Coordinator crash recovery. The journal is an append-only JSON-lines
// file with one "result" record per accepted check outcome, keyed by
// the check's fingerprint. Replay for a fingerprint returns the
// recorded outcome, so a restarted coordinator answers a check it had
// already finished without running it again. Records for other
// fingerprints and trailing partial lines (a crash mid-write) are
// skipped — recovery degrades to re-running a check, never to adopting
// a corrupt outcome.
//
// The event name versions the record. Journals written when the fleet
// split checks into cubes hold "plan" and "done" records, and a "done"
// outcome there may answer only one cube of its check. Replay skips
// them, so such a journal re-runs its checks instead of adopting a
// cube's verdict as the whole check's. Journals written before the
// fleet reported job.Result records hold "outcome" records in an older
// shape; replay skips those too, and their checks run again.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// journalRecord is one JSON line.
type journalRecord struct {
	Event   string   `json:"event"` // always "result"
	Check   string   `json:"check"` // the check's fingerprint
	From    string   `json:"from,omitempty"`
	Outcome *Outcome `json:"result"`
}

const resultEvent = "result"

type journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	enc  *json.Encoder
}

func openJournal(path string) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleet: opening journal: %w", err)
	}
	return &journal{path: path, f: f, enc: json.NewEncoder(f)}, nil
}

func (j *journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// WriteOutcome records one accepted task outcome. The coordinator
// calls it once per accepted outcome, after deduplication.
func (j *journal) WriteOutcome(t *task) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := t.outcome
	if err := j.enc.Encode(journalRecord{
		Event: resultEvent, Check: t.id, From: t.from, Outcome: &out,
	}); err != nil {
		return err
	}
	return j.f.Sync()
}

// Replay scans the journal for an outcome of the check with the given
// fingerprint; ok is false when none is recorded.
func (j *journal) Replay(fp string) (out Outcome, ok bool, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	f, err := os.Open(j.path)
	if err != nil {
		if os.IsNotExist(err) {
			return Outcome{}, false, nil
		}
		return Outcome{}, false, fmt.Errorf("fleet: reading journal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue // blank line, or a partial trailing write: skip
		}
		if rec.Event == resultEvent && rec.Check == fp && rec.Outcome != nil {
			out, ok = *rec.Outcome, true
		}
	}
	if err := sc.Err(); err != nil {
		return Outcome{}, false, fmt.Errorf("fleet: scanning journal: %w", err)
	}
	return out, ok, nil
}
