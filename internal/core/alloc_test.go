package core

import (
	"testing"

	"checkfence/internal/memmodel"
)

// TestAllocCeiling holds two Relaxed checks under an allocation
// ceiling of 0.85 of what they allocated while every formula of a
// check had a solver and circuit builder of its own (measured with Go
// 1.24 on amd64). The formulas of an attempt now share that storage
// (attempt.spare, encode.NewReusing), which brought both well under
// it; a change that loses the reuse fails here.
func TestAllocCeiling(t *testing.T) {
	for _, r := range []struct {
		impl, test string
		before     uint64 // bytes, one storage per formula
	}{
		{"lazylist", "Sac", 22_330_000},
		{"harris", "Saa", 168_210_000},
	} {
		res := check(t, r.impl, r.test, Options{Model: memmodel.Relaxed})
		if res.Stats.AllocBytes == 0 {
			t.Fatalf("%s/%s reports no allocation figure; the ceiling would pass vacuously", r.impl, r.test)
		}
		if ceiling := r.before / 100 * 85; res.Stats.AllocBytes > ceiling {
			t.Errorf("%s/%s allocated %d bytes, over the ceiling of %d (0.85 of %d)",
				r.impl, r.test, res.Stats.AllocBytes, ceiling, r.before)
		}
		t.Logf("%s/%s: %d bytes allocated", r.impl, r.test, res.Stats.AllocBytes)
	}
}

// TestAllocBytesRanAlone: the runtime counts allocation per process,
// so a check reports AllocBytes only when no other check overlapped
// it. Serially every result has its figure; beside each other the
// checks report 0, or, if one did run alone after all, a figure close
// to its serial one rather than its neighbours' allocation added in.
func TestAllocBytesRanAlone(t *testing.T) {
	var jobs []Job
	for _, p := range [][2]string{{"harris", "Saa"}, {"lazylist", "Sac"}, {"msn", "Ti2"}} {
		jobs = append(jobs, Job{Impl: p[0], Test: p[1], Opts: Options{Model: memmodel.Relaxed}})
	}
	run := func(parallelism int) []uint64 {
		alloc := make([]uint64, len(jobs))
		for i, r := range RunSuite(jobs, SuiteOptions{Parallelism: parallelism}) {
			if r.Err != nil {
				t.Fatalf("%s/%s: %v", r.Job.Impl, r.Job.Test, r.Err)
			}
			alloc[i] = r.Res.Stats.AllocBytes
		}
		return alloc
	}
	serial := run(1)
	for i, b := range serial {
		if b == 0 {
			t.Errorf("%s/%s: no allocation figure under Parallelism 1", jobs[i].Impl, jobs[i].Test)
		}
	}
	for i, b := range run(2) {
		if b != 0 && b > serial[i]/10*11 {
			t.Errorf("%s/%s: %d bytes under Parallelism 2, over 1.1x the serial %d",
				jobs[i].Impl, jobs[i].Test, b, serial[i])
		}
		t.Logf("%s/%s: %d bytes serially, %d beside the others", jobs[i].Impl, jobs[i].Test, serial[i], b)
	}
}
