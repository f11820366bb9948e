package litmus

import (
	"fmt"
	"math/rand"
	"testing"
)

// fuzzSeeds anchor the classic litmus shapes in the generator's byte
// encoding (see Generate): stores are 0-2, loads 3-5, fences 6-7 in
// the low bits; bit 3 picks the address, bits 3-4 the fence kind.
var fuzzSeeds = [][]byte{
	{1, 0, 8, 11, 3},           // sb: st x || st y, then cross loads
	{1, 0, 11, 8, 3},           // mp: st x, st y || ld y, ld x
	{1, 0, 8, 22, 22, 11, 3},   // sb with store-load fences
	{1, 0, 11, 30, 6, 8, 3},    // mp with store-store/load-load fences
	{1, 0, 3, 0, 3},            // coRR: two stores to x || two loads of x
	{2, 0, 3, 11, 8, 3, 11, 6}, // three threads, mixed ops and a fence
}

func TestGenerateShapes(t *testing.T) {
	p := Generate(fuzzSeeds[0]) // sb
	if len(p.Threads) != 3 {
		t.Fatalf("sb seed: %d threads, want 3 (init + 2)", len(p.Threads))
	}
	if len(p.Entries) != 2 {
		t.Fatalf("sb seed: %d entries, want 2", len(p.Entries))
	}
	for i, want := range []string{"t1.r0", "t2.r0"} {
		if p.Entries[i].Label != want {
			t.Errorf("entry %d label = %q, want %q", i, p.Entries[i].Label, want)
		}
	}
	// The mapping is total: arbitrary bytes still yield a program.
	for _, data := range [][]byte{nil, {0}, {255, 255, 255, 255}} {
		q := Generate(data)
		if len(q.Threads) < 2 {
			t.Errorf("Generate(%v): %d threads, want >= 2", data, len(q.Threads))
		}
	}
}

func TestSerialObservationsSB(t *testing.T) {
	p := Generate(fuzzSeeds[0])
	set, err := p.SerialObservations()
	if err != nil {
		t.Fatal(err)
	}
	// Two whole-thread orders exist; both leave the loads reading the
	// other thread's store, so one reads fresh and one reads init 0.
	if set.Len() != 2 {
		t.Fatalf("sb serial set has %d observations, want 2:\n%v", set.Len(), set.All())
	}
}

func TestDifferentialSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("differential run over all seeds is not short")
	}
	for i, seed := range fuzzSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) {
			t.Parallel()
			if err := RunDifferential(seed); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDifferentialRandom drives the full differential pipeline —
// which pits the rf oracle's enumeration against the interpreter
// and SAT mining on every model — over a deterministic random sample
// of the generator's program space.
func TestDifferentialRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized differential run is not short")
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		data := make([]byte, 1+rng.Intn(12))
		rng.Read(data)
		if err := RunDifferential(data); err != nil {
			t.Fatalf("iteration %d, data %v: %v", i, data, err)
		}
	}
}

func FuzzDifferential(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		if err := RunDifferential(data); err != nil {
			t.Fatal(err)
		}
	})
}
