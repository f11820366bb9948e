// Command checkfenced serves CheckFence verification over HTTP:
// POST /v1/check accepts a batch of serializable check descriptions
// and streams NDJSON verdicts; GET /v1/jobs/{id} polls a finished
// job; GET /metrics exposes Prometheus-format counters (verdicts,
// sweep groups, spec cache traffic, budget exhaustions); GET /healthz
// answers liveness probes.
//
// All batches share one admission gate bounding concurrent solver
// work and one spec cache whose disk tier (-spec-cache-dir) is
// content-addressed: concurrent clients requesting the same mining
// problem trigger exactly one miner. SIGINT/SIGTERM drain in-flight
// batches for -drain, then cancel the rest; sets mined to completion
// stay in the cache directory for the next process.
//
// The only parallelism is across checks: -j bounds how many of them
// the one process solves at once.
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

	"checkfence/internal/daemon"
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
	maxInflight := fs.Int("max-inflight", 0, "max admitted-but-unfinished jobs; a batch that would exceed it gets 503 + Retry-After, one larger than it 400 (0 = unlimited)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain window before cancelling in-flight work")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	srv := daemon.NewServer(daemon.Config{
		Parallelism:    *parallelism,
		CacheDir:       *cacheDir,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxBatchJobs:   *maxBatch,
		MaxInflight:    *maxInflight,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "checkfenced: %v\n", err)
		return 2
	}
	fmt.Printf("checkfenced listening on %s\n", ln.Addr())

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
