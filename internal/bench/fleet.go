package bench

// This file measures the fleet as batch throughput: the fleetPairs
// batch solved by one serial core.RunSuite call, and by a fresh
// coordinator with 1 and 3 HTTP workers over the real lease protocol
// (poll/heartbeat/result), every check dispatched concurrently the way
// the daemon's fleet mode dispatches a batch. Each check is one fleet
// task, so the fleet can only win by running different checks at once.
// Every run of every arm must reproduce the first serial run's
// verdicts and, for PASS, its byte-exact observation sets before any
// time is reported: a fleet that answers differently is a correctness
// bug, not a scaling figure. The result is the BENCH_fleet.json
// artifact.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"checkfence/internal/core"
	"checkfence/internal/fleet"
	"checkfence/internal/job"
)

// fleetPairs are the (implementation, test, model) rows of the batch;
// -quick keeps the cheap half.
var fleetPairs = []struct{ impl, test, model string }{
	{"ms2", "T0", "sc"},
	{"msn", "T0", "relaxed"},
	{"msn", "Tpc2", "relaxed"},
	{"lazylist", "Sac", "relaxed"},
	{"snark", "Da", "relaxed"},
}

var quickFleetPairs = map[string]bool{
	"ms2/T0": true, "msn/T0": true,
}

// fleetReps is the number of timed runs per arm.
const fleetReps = 5

// FleetRow is one check of the batch and its agreed verdict.
type FleetRow struct {
	Impl    string `json:"impl"`
	Test    string `json:"test"`
	Model   string `json:"model"`
	Verdict string `json:"verdict"`
}

// FleetTimes summarizes one arm's batch wall times over the reps.
type FleetTimes struct {
	MinSec    float64 `json:"min_sec"`
	MedianSec float64 `json:"median_sec"`
	MaxSec    float64 `json:"max_sec"`
}

func fleetTimes(xs []float64) FleetTimes {
	return FleetTimes{MinSec: slices.Min(xs), MedianSec: median(xs), MaxSec: slices.Max(xs)}
}

// FleetArtifact is the BENCH_fleet.json schema.
type FleetArtifact struct {
	GeneratedAt string     `json:"generated_at"`
	CPUs        int        `json:"cpus"`
	GOMAXPROCS  int        `json:"gomaxprocs"`
	GoVersion   string     `json:"go_version"`
	Reps        int        `json:"reps"`
	Rows        []FleetRow `json:"rows"`
	// Serial is one core.RunSuite call over the batch at Parallelism 1;
	// Fleet1 and Fleet3 dispatch the batch to 1 and 3 HTTP workers.
	Serial FleetTimes `json:"serial"`
	Fleet1 FleetTimes `json:"fleet1"`
	Fleet3 FleetTimes `json:"fleet3"`
	// Speedup1 and Speedup3 are the serial median over the fleet
	// median.
	Speedup1 float64 `json:"speedup_1"`
	Speedup3 float64 `json:"speedup_3"`
}

// runSerialBatch solves the batch in one serial suite call.
func runSerialBatch(jobs []core.Job) ([]fleet.Outcome, float64, error) {
	start := time.Now()
	res := core.RunSuite(jobs, core.SuiteOptions{Parallelism: 1})
	wall := time.Since(start).Seconds()
	outs := make([]fleet.Outcome, len(res))
	for i, r := range res {
		if r.Err != nil {
			return nil, 0, fmt.Errorf("bench: serial %s/%s: %w", r.Job.Impl, r.Job.Test, r.Err)
		}
		outs[i] = fleet.NewOutcome(r)
	}
	return outs, wall, nil
}

// runFleetBatch solves the batch through a fresh coordinator with n
// HTTP workers, dispatching every check at once.
func runFleetBatch(checks []job.Check, n int) ([]fleet.Outcome, float64, error) {
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Lease:          5 * time.Second,
		PollRetryAfter: 5 * time.Millisecond,
	})
	if err != nil {
		return nil, 0, err
	}
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var workers sync.WaitGroup
	for i := 0; i < n; i++ {
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			ID:           fmt.Sprintf("bench-w%d", i),
			URL:          ts.URL,
			PollInterval: 5 * time.Millisecond,
		})
		if err != nil {
			return nil, 0, err
		}
		workers.Add(1)
		go func() {
			defer workers.Done()
			w.Run(ctx)
		}()
	}

	outs := make([]fleet.Outcome, len(checks))
	errs := make([]error, len(checks))
	var batch sync.WaitGroup
	start := time.Now()
	for i, ck := range checks {
		batch.Add(1)
		go func() {
			defer batch.Done()
			outs[i], errs[i] = coord.CheckDistributed(ctx, ck)
		}()
	}
	batch.Wait()
	wall := time.Since(start).Seconds()
	cancel()
	workers.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("bench: fleet(%d) %s/%s: %w",
				n, checks[i].Program.Name, checks[i].Test, err)
		}
	}
	return outs, wall, nil
}

// FleetReport measures the fleet's batch throughput against the serial
// suite, prints the comparison, and writes the artifact to jsonPath
// ("" = print only).
func (r *Runner) FleetReport(jsonPath string) error {
	art := FleetArtifact{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		CPUs:        runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Reps:        fleetReps,
	}
	var checks []job.Check
	var jobs []core.Job
	for _, pair := range fleetPairs {
		if r.Quick && !quickFleetPairs[pair.impl+"/"+pair.test] {
			continue
		}
		ck := job.Check{Program: job.Program{Name: pair.impl}, Test: pair.test, Model: pair.model}
		cj, err := ck.CoreJob()
		if err != nil {
			return err
		}
		checks = append(checks, ck)
		jobs = append(jobs, cj)
	}

	var oracle []fleet.Outcome
	// agree is the gate: every run must reproduce the first serial run.
	agree := func(arm string, outs []fleet.Outcome) error {
		for i, out := range outs {
			want, ck := oracle[i], checks[i]
			if out.Verdict != want.Verdict || out.SeqBug != want.SeqBug {
				return fmt.Errorf("bench: %s disagrees with serial on %s/%s/%s: %s vs %s",
					arm, ck.Program.Name, ck.Test, ck.Model, out.Verdict, want.Verdict)
			}
			if want.Verdict == "pass" && out.Spec != want.Spec {
				return fmt.Errorf("bench: %s observation set diverges from serial on %s/%s/%s",
					arm, ck.Program.Name, ck.Test, ck.Model)
			}
		}
		return nil
	}
	var serial, fleet1, fleet3 []float64
	for rep := 0; rep < fleetReps; rep++ {
		outs, wall, err := runSerialBatch(jobs)
		if err != nil {
			return err
		}
		if oracle == nil {
			oracle = outs
		}
		if err := agree("serial", outs); err != nil {
			return err
		}
		serial = append(serial, wall)
		for _, n := range []int{1, 3} {
			outs, wall, err := runFleetBatch(checks, n)
			if err != nil {
				return err
			}
			if err := agree(fmt.Sprintf("fleet(%d)", n), outs); err != nil {
				return err
			}
			if n == 1 {
				fleet1 = append(fleet1, wall)
			} else {
				fleet3 = append(fleet3, wall)
			}
		}
	}
	for i, ck := range checks {
		art.Rows = append(art.Rows, FleetRow{
			Impl: ck.Program.Name, Test: ck.Test, Model: ck.Model, Verdict: oracle[i].Verdict,
		})
	}
	art.Serial, art.Fleet1, art.Fleet3 = fleetTimes(serial), fleetTimes(fleet1), fleetTimes(fleet3)
	art.Speedup1 = speedup(art.Serial.MedianSec, art.Fleet1.MedianSec)
	art.Speedup3 = speedup(art.Serial.MedianSec, art.Fleet3.MedianSec)

	r.printf("Fleet batch throughput: %d checks, serial suite vs fleets of 1 and 3 HTTP workers (%d reps, %d CPUs)\n",
		len(checks), fleetReps, art.CPUs)
	for _, row := range art.Rows {
		r.printf("  %-10s %-7s %-8s %s\n", row.Impl, row.Test, row.Model, row.Verdict)
	}
	r.printf("%-8s | %9s %9s %9s | %s\n", "arm", "min[s]", "median[s]", "max[s]", "speedup")
	arm := func(name string, t FleetTimes, x float64) {
		r.printf("%-8s | %9.3f %9.3f %9.3f | %5.2fx\n", name, t.MinSec, t.MedianSec, t.MaxSec, x)
	}
	arm("serial", art.Serial, 1)
	arm("fleet1", art.Fleet1, art.Speedup1)
	arm("fleet3", art.Fleet3, art.Speedup3)

	if jsonPath != "" {
		data, err := json.MarshalIndent(&art, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		r.printf("wrote %s\n", jsonPath)
	}
	return nil
}
