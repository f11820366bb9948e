// Command benchtab regenerates the tables and figures of the paper's
// evaluation (Section 4) from the Go reproduction:
//
//	benchtab -table 1          Table 1: the implementations studied
//	benchtab -table 10a        Fig. 10a: inclusion-check statistics
//	benchtab -fig 10b          Fig. 10b: time/size vs. memory accesses
//	benchtab -fig 11a          Fig. 11a: specification mining (incl. refset)
//	benchtab -fig 11b          Fig. 11b: average runtime breakdown
//	benchtab -fig 11c          Fig. 11c: range analysis on/off
//	benchtab -fig 12           Fig. 12: observation-set vs. commit-point method
//	benchtab -table fences     §4.2: fence sufficiency/necessity matrix
//	benchtab -fig sc-vs-relaxed §4.4: model choice impact on runtime
//	benchtab -fig encode       formula minimization on/off
//	benchtab -fig backend      multi-backend routing: rf vs SAT, auto vs forced SAT
//	benchtab -fig sweep        model-sweep grouping: shared encoding vs independent checks
//	benchtab -fig daemon       checking as a service: HTTP batch vs direct suite
//
// The last four print their report; -encode-json, -backend-json,
// -sweep-json and -daemon-json also write it to the given BENCH file.
//
// Absolute times differ from the paper's 2007 testbed; the shapes
// (growth trends, ratios, who wins) are the reproduction target. Use
// -budget to bound per-check time and -quick to restrict to the small
// tests.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"checkfence/internal/bench"
)

func main() {
	var (
		table   = flag.String("table", "", "regenerate a table: 1, 10a, fences")
		fig     = flag.String("fig", "", "regenerate a figure: 10b, 11a, 11b, 11c, 12, sc-vs-relaxed")
		quick   = flag.Bool("quick", false, "restrict to small tests (fast)")
		budget  = flag.Duration("budget", 10*time.Minute, "per-check time budget (checks expected to exceed it are skipped)")
		jobs    = flag.Int("j", 1, "number of checks run concurrently (> 1 disables -budget's early exit)")
		encJSON = flag.String("encode-json", "", "write -fig encode's report to this path (default: print only)")
		bakJSON = flag.String("backend-json", "", "write -fig backend's report to this path (default: print only)")
		swpJSON = flag.String("sweep-json", "", "write -fig sweep's report to this path (default: print only)")
		dmnJSON = flag.String("daemon-json", "", "write -fig daemon's report to this path (default: print only)")
	)
	flag.Parse()

	r := bench.Runner{Quick: *quick, Budget: *budget, Out: os.Stdout, Jobs: *jobs}
	var err error
	switch {
	case *table == "1":
		err = r.Table1()
	case *table == "10a":
		err = r.Fig10a()
	case *table == "fences":
		err = r.FenceTable()
	case *fig == "10b":
		err = r.Fig10b()
	case *fig == "11a":
		err = r.Fig11a()
	case *fig == "11b":
		err = r.Fig11b()
	case *fig == "11c":
		err = r.Fig11c()
	case *fig == "12":
		err = r.Fig12()
	case *fig == "sc-vs-relaxed":
		err = r.ModelChoice()
	case *fig == "encode":
		err = r.EncodeReport(*encJSON)
	case *fig == "backend":
		err = r.BackendReport(*bakJSON)
	case *fig == "sweep":
		err = r.SweepReport(*swpJSON)
	case *fig == "daemon":
		err = r.DaemonReport(*dmnJSON)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}
