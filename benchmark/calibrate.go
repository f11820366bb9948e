package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// The hosts the benchmark runs on are shared, and their speed drifts by
// a fifth and more over minutes: more than a run's own repetitions can
// average out, so runs of the same code made minutes apart disagree.
// Every time the benchmark reports is therefore scaled to a host of
// fixed speed. Right before each timed unit (a check, one pair's model
// sweep, a request or a set-up) calibrate times a fixed kernel that does
// the kind of work the checker does (allocation, map and slice building,
// sorting, hashing), so that a slower host slows both alike, and the
// unit's time is scaled by referenceMs over the kernel's time. README.md
// gives the measurements behind this.

// referenceMs is about the kernel's time on the host the baseline was
// recorded on while that host is quiet, so that scaled times read close
// to the times measured there.
const referenceMs = 10.0

var kernelSink byte

// calibrate collects garbage and returns the freed memory to the
// system, so that the unit timed next starts from a clean heap as it
// would in a fresh process and the process's peak RSS is that of its
// largest unit, then times the kernel and returns the factor that scales
// a time measured now to the reference host.
func calibrate() float64 {
	debug.FreeOSMemory()
	start := time.Now()
	r := rand.New(rand.NewSource(1))
	buckets := map[int32][]int32{}
	for i := 0; i < 60000; i++ {
		k := int32(r.Intn(20000))
		buckets[k] = append(buckets[k], int32(i))
	}
	keys := make([]int32, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	h := sha256.New()
	var b [4]byte
	for round := 0; round < 8; round++ {
		for _, k := range keys {
			binary.LittleEndian.PutUint32(b[:], uint32(k)+uint32(len(buckets[k])))
			h.Write(b[:])
		}
	}
	kernelSink = h.Sum(nil)[0]
	return referenceMs / (float64(time.Since(start)) / 1e6)
}

// timed calibrates, then runs f and returns its time in ms, the factor
// that scales that time to the reference host, and the heap MB f
// allocated.
func timed(f func()) (ms, scale, allocMB float64) {
	scale = calibrate()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	ms = float64(time.Since(start)) / 1e6
	runtime.ReadMemStats(&after)
	return ms, scale, float64(after.TotalAlloc-before.TotalAlloc) / 1e6
}
