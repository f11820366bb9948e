package spec

import (
	"strings"
	"testing"

	"checkfence/internal/lsl"
)

func sampleSet() *Set {
	s := NewSet()
	s.Add(Observation{lsl.Int(0), lsl.Int(1), lsl.Undef()})
	s.Add(Observation{lsl.Int(1), lsl.Int(-3), lsl.Ptr(40, 2)})
	s.Add(Observation{lsl.Undef(), lsl.Ptr(7), lsl.Int(0)})
	return s
}

// TestSetRoundTrip: the empty set and a one-observation set survive
// the format too (a zero count line, a single line).
func TestSetRoundTrip(t *testing.T) {
	one := NewSet()
	one.Add(Observation{lsl.Ptr(3, 1)})
	for name, want := range map[string]*Set{"empty": NewSet(), "one": one} {
		var sb strings.Builder
		if _, err := want.WriteKeyed(&sb, "k"); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSetKeyed(strings.NewReader(sb.String()), "k")
		if err != nil {
			t.Fatalf("%s: ReadSetKeyed: %v\ninput:\n%s", name, err, sb.String())
		}
		if !got.Equal(want) {
			t.Fatalf("%s: round trip mismatch:\nwant %v\ngot  %v", name, want.All(), got.All())
		}
	}
}

func TestWriteToDeterministic(t *testing.T) {
	var a, b strings.Builder
	if _, err := sampleSet().WriteKeyed(&a, "abc123"); err != nil {
		t.Fatal(err)
	}
	if _, err := sampleSet().WriteKeyed(&b, "abc123"); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("serialization not deterministic:\n%q\n%q", a.String(), b.String())
	}
}

func TestReadSetRejectsCorruption(t *testing.T) {
	var sb strings.Builder
	if _, err := sampleSet().WriteKeyed(&sb, "abc123"); err != nil {
		t.Fatal(err)
	}
	good := sb.String()
	if _, err := ReadSetKeyed(strings.NewReader(good), "abc123"); err != nil {
		t.Fatalf("good input rejected: %v", err)
	}
	for name, input := range map[string]string{
		"empty":      "",
		"bad header": "nonsense\n" + good,
		"truncated":  good[:len(good)-len("0,1,undefined\n")-1],
		"bad value":  strings.Replace(good, "undefined", "undefinable", 1),
		"bad count":  strings.Replace(good, "\n3\n", "\n-3\n", 1),
		"duplicate":  strings.Replace(good, "\n3\n", "\n4\n", 1) + "0,1,undefined\n",
	} {
		if _, err := ReadSetKeyed(strings.NewReader(input), "abc123"); err == nil {
			t.Errorf("%s: ReadSetKeyed accepted corrupt input", name)
		}
	}
}

func TestKeyedRoundTrip(t *testing.T) {
	want := sampleSet()
	var sb strings.Builder
	if _, err := want.WriteKeyed(&sb, "abc123"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSetKeyed(strings.NewReader(sb.String()), "abc123")
	if err != nil {
		t.Fatalf("ReadSetKeyed: %v\ninput:\n%s", err, sb.String())
	}
	if !got.Equal(want) {
		t.Fatalf("round trip mismatch:\nwant %v\ngot  %v", want.All(), got.All())
	}
}

func TestKeyedRejectsForeignAndLegacyEntries(t *testing.T) {
	var keyed strings.Builder
	if _, err := sampleSet().WriteKeyed(&keyed, "abc123"); err != nil {
		t.Fatal(err)
	}
	// The unkeyed version 1 format older builds wrote, and the mining
	// checkpoint format they left beside it.
	legacy := "checkfence-obs 1\n1\n0,1,undefined\n"
	part := "checkfence-obs-part 1\nkey abc123\niterations 5\n1\n0,1,undefined\n"
	// A set mined for a different problem must not be reused.
	if _, err := ReadSetKeyed(strings.NewReader(keyed.String()), "other-key"); err == nil {
		t.Error("ReadSetKeyed accepted a foreign-key entry")
	}
	// Legacy v1 files carry no key, so nothing ties them to the
	// requested problem: reject (the cache re-mines and rewrites).
	if _, err := ReadSetKeyed(strings.NewReader(legacy), "abc123"); err == nil {
		t.Error("ReadSetKeyed accepted a legacy unkeyed entry")
	}
	// A checkpoint held a partial set: never a specification.
	if _, err := ReadSetKeyed(strings.NewReader(part), "abc123"); err == nil {
		t.Error("ReadSetKeyed accepted a mining checkpoint")
	}
	// A missing or malformed key line is corruption.
	broken := strings.Replace(keyed.String(), "key abc123", "abc123", 1)
	if _, err := ReadSetKeyed(strings.NewReader(broken), "abc123"); err == nil {
		t.Error("ReadSetKeyed accepted a malformed key line")
	}
}

func TestParseObservationValues(t *testing.T) {
	obs, err := ParseObservation("42,undefined,[ 16 0 3 ]")
	if err != nil {
		t.Fatal(err)
	}
	want := Observation{lsl.Int(42), lsl.Undef(), lsl.Ptr(16, 0, 3)}
	if obs.Key() != want.Key() {
		t.Fatalf("parsed %q, want %q", obs.Key(), want.Key())
	}
}
