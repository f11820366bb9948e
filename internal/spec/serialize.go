package spec

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"checkfence/internal/lsl"
)

// Textual observation-set format, used by the on-disk spec cache so
// mined sets can be reused across processes:
//
//	checkfence-obs 2
//	key <mining key>
//	<count>
//	<observation>        one per line, Observation.Key() form
//
// Value syntax matches lsl.Value.String(): "undefined", a decimal
// integer, or "[ b o1 o2 ]" for a pointer; observation fields are
// comma-separated.
//
// The file embeds the mining key (the harness/bounds/source hash)
// that produced the set, and the reader verifies it: a cache file that
// was renamed, copied between cache directories, or written by a
// process with a different key derivation never silently supplies a
// wrong specification — it reads as a mismatch and the set is
// re-mined. Any other header, the unkeyed version 1 included, is
// rejected as a bad header.

const setFormatHeader = "checkfence-obs 2"

// WriteKeyed serializes the set in deterministic (sorted key) order,
// binding it to the mining key that produced it.
func (s *Set) WriteKeyed(w io.Writer, key string) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(c int, err error) error {
		n += int64(c)
		return err
	}
	if err := count(fmt.Fprintf(bw, "%s\nkey %s\n%d\n", setFormatHeader, key, s.Len())); err != nil {
		return n, err
	}
	for _, o := range s.All() {
		if err := count(fmt.Fprintln(bw, o.Key())); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadSetKeyed parses a set previously written with WriteKeyed,
// rejecting streams written under a different mining key or with any
// other header.
func ReadSetKeyed(r io.Reader, key string) (*Set, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("spec: empty observation-set stream")
	}
	if got := sc.Text(); got != setFormatHeader {
		return nil, fmt.Errorf("spec: bad observation-set header %q", got)
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("spec: observation-set stream missing key line")
	}
	gotKey, ok := strings.CutPrefix(sc.Text(), "key ")
	if !ok {
		return nil, fmt.Errorf("spec: malformed key line %q", sc.Text())
	}
	if gotKey != key {
		return nil, fmt.Errorf("spec: observation set mined for a different problem (key %.12s…, want %.12s…)",
			gotKey, key)
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("spec: observation-set stream missing count")
	}
	want, err := strconv.Atoi(strings.TrimSpace(sc.Text()))
	if err != nil || want < 0 {
		return nil, fmt.Errorf("spec: bad observation count %q", sc.Text())
	}
	set := NewSet()
	for i := 0; i < want; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("spec: observation-set stream truncated at %d/%d", i, want)
		}
		obs, err := ParseObservation(sc.Text())
		if err != nil {
			return nil, err
		}
		set.Add(obs)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if set.Len() != want {
		return nil, fmt.Errorf("spec: observation-set stream has duplicates (%d distinct of %d)",
			set.Len(), want)
	}
	return set, nil
}

// ParseObservation parses the Observation.Key() form.
func ParseObservation(line string) (Observation, error) {
	fields := strings.Split(line, ",")
	obs := make(Observation, len(fields))
	for i, f := range fields {
		v, err := parseValue(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("spec: observation %q: %w", line, err)
		}
		obs[i] = v
	}
	return obs, nil
}

// parseValue inverts lsl.Value.String().
func parseValue(s string) (lsl.Value, error) {
	switch {
	case s == "undefined":
		return lsl.Undef(), nil
	case strings.HasPrefix(s, "[") && strings.HasSuffix(s, "]"):
		parts := strings.Fields(s[1 : len(s)-1])
		if len(parts) == 0 {
			return lsl.Value{}, fmt.Errorf("empty pointer value %q", s)
		}
		comps := make([]int64, len(parts))
		for i, p := range parts {
			n, err := strconv.ParseInt(p, 10, 64)
			if err != nil {
				return lsl.Value{}, fmt.Errorf("bad pointer component %q in %q", p, s)
			}
			comps[i] = n
		}
		return lsl.PtrFromComponents(comps), nil
	default:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return lsl.Value{}, fmt.Errorf("bad value %q", s)
		}
		return lsl.Int(n), nil
	}
}
