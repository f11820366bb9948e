package faultinject

import (
	"sync"
	"testing"
)

func TestScriptFiresExactlyOnce(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s := NewScript(seed, 8, SolverBudget)
		fired := 0
		for i := 0; i < 100; i++ {
			if s.Fire(SolverBudget) {
				fired++
			}
		}
		if fired != 1 {
			t.Fatalf("seed %d: fired %d times, want 1", seed, fired)
		}
		if s.Fired(SolverBudget) != 1 {
			t.Fatalf("seed %d: Fired = %d", seed, s.Fired(SolverBudget))
		}
	}
}

func TestScriptDeterministic(t *testing.T) {
	occurrence := func(seed int64) int {
		s := NewScript(seed, 8, MinePanic)
		for i := 0; i < 100; i++ {
			if s.Fire(MinePanic) {
				return i
			}
		}
		return -1
	}
	seeds := []int64{1, 2, 3, 4, 5}
	distinct := map[int]bool{}
	for _, seed := range seeds {
		a, b := occurrence(seed), occurrence(seed)
		if a != b {
			t.Fatalf("seed %d: occurrences %d and %d differ across runs", seed, a, b)
		}
		if a < 0 || a >= 8 {
			t.Fatalf("seed %d: occurrence %d outside window", seed, a)
		}
		distinct[a] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all seeds chose the same occurrence; seed is not driving the schedule")
	}
}

func TestScriptUnarmedSiteNeverFires(t *testing.T) {
	s := NewScript(7, 4, SolverBudget)
	for i := 0; i < 50; i++ {
		if s.Fire(CacheCorrupt) {
			t.Fatal("unarmed site fired")
		}
	}
}

func TestScriptConcurrent(t *testing.T) {
	s := NewScript(3, 16, SolvePanic)
	var wg sync.WaitGroup
	var mu sync.Mutex
	fired := 0
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if s.Fire(SolvePanic) {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fired != 1 {
		t.Fatalf("fired %d times under concurrency, want 1", fired)
	}
}

func TestAlways(t *testing.T) {
	a := &Always{Sites: []Site{EncodePanic}}
	for i := 0; i < 3; i++ {
		if !a.Fire(EncodePanic) {
			t.Fatal("armed Always site did not fire")
		}
		if a.Fire(SolverAlloc) {
			t.Fatal("unarmed Always site fired")
		}
	}
	if a.Fired(EncodePanic) != 3 {
		t.Fatalf("Fired = %d, want 3", a.Fired(EncodePanic))
	}
}

func TestInjectedSite(t *testing.T) {
	if got := InjectedSite(Injected{Site: SolvePanic}); got != SolvePanic {
		t.Fatalf("InjectedSite(Injected) = %q", got)
	}
	if got := InjectedSite(&RecoveredPanic{Value: Injected{Site: MinePanic}}); got != MinePanic {
		t.Fatalf("InjectedSite(RecoveredPanic) = %q", got)
	}
	if got := InjectedSite("boom"); got != "" {
		t.Fatalf("InjectedSite(genuine) = %q, want empty", got)
	}
}

func TestSitesCoverRecoverable(t *testing.T) {
	found := map[Site]bool{}
	for _, s := range Sites() {
		found[s] = true
	}
	if !found[CacheCorrupt] {
		t.Fatalf("recoverable site %q missing from Sites()", CacheCorrupt)
	}
	if !Recoverable(CacheCorrupt) {
		t.Fatalf("site %q should be recoverable", CacheCorrupt)
	}
	for _, s := range []Site{SolvePanic, SolverBudget} {
		if Recoverable(s) {
			t.Fatalf("%s should not be recoverable", s)
		}
	}
}
