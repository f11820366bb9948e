// Command checkfenced serves CheckFence verification over HTTP:
// POST /v1/check accepts a batch of serializable check descriptions
// and streams NDJSON verdicts; GET /v1/jobs/{id} polls a finished
// job; GET /metrics exposes Prometheus-format counters (verdicts,
// router decisions, sweep groups, spec cache traffic, budget
// exhaustions); GET /healthz answers liveness probes.
//
// All batches share one admission gate bounding concurrent solver
// work and one spec cache whose disk tier (-spec-cache-dir) is
// content-addressed: concurrent clients requesting the same mining
// problem trigger exactly one miner. SIGINT/SIGTERM drain in-flight
// batches for -drain, then cancel the rest; interrupted miners leave
// resumable checkpoints in the cache directory.
//
// Distributed mode: -coordinator turns the daemon into a fleet
// coordinator — each check is one task (internal/fleet), leased whole
// to workers polling /fleet/v1/*; every fault class (worker
// crash, hang, partition, duplicate delivery) degrades to
// slower-but-correct via requeue or local fallback, with
// the cause visible on /metrics. -worker URL runs the process as a
// pull worker against such a coordinator instead of serving HTTP.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"checkfence/internal/core"
	"checkfence/internal/daemon"
	"checkfence/internal/fleet"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("checkfenced", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7757", "listen address")
	parallelism := fs.Int("j", 0, "max concurrent check units across all batches (0 = GOMAXPROCS)")
	cacheDir := fs.String("spec-cache-dir", "", "shared on-disk observation-set cache directory")
	timeout := fs.Duration("timeout", 0, "default per-job deadline for jobs without one (0 = none)")
	maxTimeout := fs.Duration("max-timeout", 0, "clamp on per-job deadlines (0 = unclamped)")
	maxBatch := fs.Int("max-batch", 0, "max jobs per batch after model expansion (0 = 256)")
	maxInflight := fs.Int("max-inflight", 0, "max admitted-but-unfinished jobs; excess batches get 503 + Retry-After (0 = unlimited)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain window before cancelling in-flight work")

	coordinator := fs.Bool("coordinator", false, "fleet coordinator mode: lease checks to workers via /fleet/v1/*")
	workerURL := fs.String("worker", "", "fleet worker mode: pull checks from this coordinator URL")
	workerID := fs.String("worker-id", "", "worker identity (default: host-pid)")
	lease := fs.Duration("lease", 30*time.Second, "coordinator: task lease duration (workers must heartbeat within it)")
	fleetRetries := fs.Int("fleet-retries", 3, "coordinator: retries after a check's first dispatch before solving it locally")
	journalPath := fs.String("fleet-journal", "", "coordinator: crash-recovery journal path (JSON lines)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *workerURL != "" {
		return runWorker(*workerURL, *workerID, *cacheDir)
	}

	cfg := daemon.Config{
		Parallelism:    *parallelism,
		CacheDir:       *cacheDir,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxBatchJobs:   *maxBatch,
		MaxInflight:    *maxInflight,
	}
	var coord *fleet.Coordinator
	if *coordinator {
		var err error
		coord, err = fleet.NewCoordinator(fleet.CoordinatorConfig{
			Lease:       *lease,
			MaxRetries:  *fleetRetries,
			JournalPath: *journalPath,
			Local: core.SuiteOptions{
				SpecCacheDir: *cacheDir,
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "checkfenced: %v\n", err)
			return 2
		}
		defer coord.Close()
		cfg.Fleet = coord
	}

	srv := daemon.NewServer(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "checkfenced: %v\n", err)
		return 2
	}
	mode := ""
	if coord != nil {
		mode = " (fleet coordinator)"
	}
	fmt.Printf("checkfenced listening on %s%s\n", ln.Addr(), mode)

	httpSrv := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("checkfenced: %v, draining (up to %v)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "checkfenced: drain cut short: %v\n", err)
		}
		httpSrv.Shutdown(context.Background())
		return 0
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "checkfenced: %v\n", err)
		return 2
	}
}

// runWorker runs the process as a fleet pull worker until interrupted.
func runWorker(url, id, cacheDir string) int {
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		ID:           id,
		URL:          url,
		SpecCacheDir: cacheDir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "checkfenced: %v\n", err)
		return 2
	}
	fmt.Printf("checkfenced worker %s pulling from %s\n", id, url)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = w.Run(ctx)
	st := w.Stats()
	fmt.Printf("checkfenced worker %s done: %d polled, %d completed, %d abandoned\n",
		id, st.Polled, st.Completed, st.Abandoned)
	if err != nil && err != context.Canceled {
		fmt.Fprintf(os.Stderr, "checkfenced: %v\n", err)
		return 2
	}
	return 0
}
