// Command flareload replays synthetic control-plane traffic against a
// live oneapiserver: per cell, a synthetic eNodeB posting statistics
// reports (BAI rounds) and a population of plugin clients opening
// sessions, polling assignments, and churning. It reports the two
// numbers the city-scale control-plane story stands on — sustained
// sessions/sec on the open path, and BAI round-trip p50/p95/p99 on the
// stats path — and can export live counters via its own /metrics
// endpoint while the run is in flight.
//
// The request stream is deterministic (synthetic radio accounting
// derived from flow/round indices); only timing varies between runs.
//
// Usage:
//
//	flareload -url http://127.0.0.1:8480 [-cells 100] [-sessions 100]
//	          [-rounds 30] [-interval 0] [-churn-every 0]
//	          [-first-cell 0] [-metrics :9480] [-out results.json] [-version]
//
// Example — the 10k-session acceptance run:
//
//	oneapiserver -addr :8480 &
//	flareload -url http://127.0.0.1:8480 -cells 100 -sessions 100 -rounds 30
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"github.com/flare-sim/flare/internal/buildinfo"
	"github.com/flare-sim/flare/internal/loadgen"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		url        = flag.String("url", "http://127.0.0.1:8480", "base URL of the oneapiserver under test")
		cells      = flag.Int("cells", 100, "synthetic eNodeBs (also the request concurrency)")
		sessions   = flag.Int("sessions", 100, "plugin sessions per cell (total = cells * sessions)")
		firstCell  = flag.Int("first-cell", 0, "first cell ID (offset the range so several drivers can share a server)")
		rounds     = flag.Int("rounds", 30, "BAI rounds per cell")
		interval   = flag.Duration("interval", 0, "pacing between a cell's rounds (0 = back-to-back, the bench mode)")
		churnEvery = flag.Int("churn-every", 0, "close+reopen one session per cell every N rounds (0 = off)")
		metrics    = flag.String("metrics", "", "serve live counters at this address (e.g. :9480) during the run")
		out        = flag.String("out", "", "write the JSON result to this file")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "flareload")
		return 0
	}

	cfg := loadgen.Config{
		BaseURL:         *url,
		Cells:           *cells,
		SessionsPerCell: *sessions,
		FirstCell:       *firstCell,
		Rounds:          *rounds,
		Interval:        *interval,
		ChurnEvery:      *churnEvery,
	}
	tr := &loadgen.Tracker{}
	if *metrics != "" {
		msrv := &http.Server{Addr: *metrics, Handler: metricsMux(tr)}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "flareload: metrics server: %v\n", err)
			}
		}()
		defer msrv.Close()
		fmt.Printf("flareload: serving /metrics on %s\n", *metrics)
	}

	fmt.Printf("flareload: %d cells x %d sessions = %d concurrent sessions, %d rounds (interval=%v) against %s\n",
		*cells, *sessions, *cells**sessions, *rounds, *interval, *url)
	start := time.Now()
	res, err := loadgen.Run(cfg, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flareload: %v\n", err)
		return 1
	}

	fmt.Printf("flareload: done in %.2fs\n", time.Since(start).Seconds())
	fmt.Printf("  sessions   %d opened (%d errors) in %.2fs -> %.0f sessions/sec\n",
		res.OpenedSessions, res.OpenErrors, res.OpenSeconds, res.SessionsPerSec)
	fmt.Printf("  BAI rounds %d (%d errors) in %.2fs -> %.0f rounds/sec\n",
		res.RoundsTotal, res.RoundErrors, res.RoundSeconds, res.RoundsPerSec)
	fmt.Printf("  round trip p50 %.1fms  p95 %.1fms  p99 %.1fms\n",
		res.P50Seconds*1e3, res.P95Seconds*1e3, res.P99Seconds*1e3)
	fmt.Printf("  polls      %d (%d errors)\n", res.Polls, res.PollErrors)

	if *out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "flareload: marshal result: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "flareload: %v\n", err)
			return 1
		}
		fmt.Printf("flareload: wrote %s\n", *out)
	}
	if res.OpenErrors > 0 || res.RoundErrors > 0 || res.PollErrors > 0 {
		return 1
	}
	return 0
}

func metricsMux(tr *loadgen.Tracker) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", loadgen.MetricsHandler(tr))
	return mux
}
