// Command oneapiserver runs a standalone OneAPI server: the network-side
// half of FLARE, exposed over JSON/HTTP in the shape of the OMA RESTful
// Network APIs. eNodeBs POST statistics reports to it; FLARE plugins
// register sessions and poll assignments.
//
// For resilience testing the whole API can be wrapped in the fault
// injector: -fault-drop / -fault-fail answer a fraction of requests
// with 503, -fault-delay holds them, and -fault-blackout takes the
// server down for scheduled windows (e.g. "60s-90s" after start) —
// exactly the conditions the hardened clients must ride out.
//
// Observability: the server records control-plane decisions into an
// in-process flight recorder (internal/obs) and exposes
//
//	/metrics      Prometheus-text counters, solver-latency histogram, and
//	              process gauges (Go heap/goroutines/GC, solver scratch)
//	/debug/flare  JSON tail of the recorder's ring buffer (?n=64)
//
// Both endpoints sit outside the fault middleware so they stay
// reachable during injected blackouts.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight
// requests get a draining deadline before the listener closes.
//
// Saturation controls: -admission refuses session opens that would
// break the floor-bitrate budget (HTTP 503 with a Retry-After hint),
// -admission-queue holds that many refused opens for promotion when
// capacity frees, -downgrade sheds ladder ceilings under sustained
// overload, and -objective selects the utility model (eq2 or upf).
//
// Usage:
//
//	oneapiserver [-addr :8480] [-alpha 1.0] [-delta 4] [-bai 1s] [-relax]
//	             [-objective eq2|upf] [-admission] [-admission-queue 8] [-downgrade]
//	             [-fault-drop 0.2] [-fault-fail 0.1] [-fault-delay 0.1]
//	             [-fault-delay-by 2s] [-fault-blackout 60s-90s] [-fault-seed 1]
//	             [-ring 4096] [-version]
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/flare-sim/flare/internal/buildinfo"
	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/faults"
	"github.com/flare-sim/flare/internal/graceful"
	"github.com/flare-sim/flare/internal/obs"
	"github.com/flare-sim/flare/internal/oneapi"
)

// shutdownGrace bounds how long in-flight requests may drain after
// SIGINT/SIGTERM before the server is torn down.
const shutdownGrace = 5 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr    = flag.String("addr", ":8480", "listen address")
		alpha   = flag.Float64("alpha", 1.0, "data/video priority")
		delta   = flag.Int("delta", 4, "Algorithm 1 stability parameter")
		bai     = flag.Duration("bai", time.Second, "bitrate assignment interval")
		relax   = flag.Bool("relax", false, "use the continuous-relaxation solver")
		objName = flag.String("objective", "", "utility objective: eq2 (paper Eq. 2, default) or upf")

		admission = flag.Bool("admission", false, "refuse session opens that would break the floor-bitrate budget (503 + Retry-After)")
		admQueue  = flag.Int("admission-queue", 0, "bounded wait queue for refused opens (0 = refuse immediately)")
		downgrade = flag.Bool("downgrade", false, "shed ladder ceilings under sustained overload instead of stalling flows")
		ring      = flag.Int("ring", 0, "flight-recorder ring size in events (0 = default 4096, negative = disabled)")
		version   = flag.Bool("version", false, "print version and exit")

		faultDrop     = flag.Float64("fault-drop", 0, "fraction of requests answered 503 as if lost (0..1)")
		faultFail     = flag.Float64("fault-fail", 0, "fraction of requests answered with an injected server error (0..1)")
		faultDelay    = flag.Float64("fault-delay", 0, "fraction of requests held before handling (0..1)")
		faultDelayBy  = flag.Duration("fault-delay-by", 2*time.Second, "hold time for delayed requests")
		faultBlackout = flag.String("fault-blackout", "", `scheduled blackout windows relative to start, e.g. "60s-90s,300s-330s"`)
		faultSeed     = flag.Uint64("fault-seed", 1, "fault injector seed")
	)
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "oneapiserver")
		return 0
	}

	cfg := core.DefaultConfig()
	cfg.Alpha = *alpha
	cfg.Delta = *delta
	cfg.BAI = *bai
	cfg.UseRelaxation = *relax
	if _, ok := core.ObjectiveByName(*objName); !ok {
		fmt.Fprintf(os.Stderr, "oneapiserver: unknown -objective %q (have %s)\n",
			*objName, strings.Join(core.ObjectiveNames(), ", "))
		return 2
	}
	cfg.Objective = *objName
	cfg.AdmissionControl = *admission
	cfg.AdmissionQueue = *admQueue
	cfg.DowngradeLadder = *downgrade

	faultCfg := faults.Config{
		Seed:     *faultSeed,
		DropRate: *faultDrop,
		FailRate: *faultFail,
	}
	if *faultDelay > 0 {
		faultCfg.DelayRate = *faultDelay
		faultCfg.DelayBy = *faultDelayBy
	}
	if *faultBlackout != "" {
		windows, err := parseWindows(*faultBlackout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oneapiserver: %v\n", err)
			return 2
		}
		faultCfg.Blackouts = windows
	}
	if err := faultCfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "oneapiserver: %v\n", err)
		return 2
	}

	handler, _, server := buildHandler(cfg, faultCfg, *ring)
	if faultCfg.Enabled() {
		fmt.Printf("oneapiserver: fault injection ON (drop=%.2f fail=%.2f delay=%.2f blackouts=%d)\n",
			*faultDrop, *faultFail, *faultDelay, len(faultCfg.Blackouts))
	}

	fmt.Print(banner(*addr, cfg))
	srv := &http.Server{Addr: *addr, Handler: handler}
	logf := func(format string, args ...any) {
		fmt.Printf("oneapiserver: "+format+"\n", args...)
	}
	err := graceful.ServeDrain(srv, shutdownGrace, logf, func(grace time.Duration) {
		// Refuse new sessions and BAI rounds, then wait for rounds
		// already executing — none is dropped mid-install. The HTTP
		// drain that follows shares the grace budget, so the BAI wait
		// takes at most half of it.
		server.BeginDrain()
		if left := server.DrainWait(grace / 2); left > 0 {
			logf("drain deadline passed with %d BAI round(s) still in flight", left)
		}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "oneapiserver: %v\n", err)
		return 1
	}
	return 0
}

// banner is the start-up line. It shows the configuration the server
// runs on, normalised: a -bai of -3s prints the 1 s BAI it falls back to.
func banner(addr string, cfg core.Config) string {
	cfg = cfg.Normalized()
	return fmt.Sprintf("oneapiserver: listening on %s (alpha=%.2f delta=%d bai=%v relax=%v)\n",
		addr, cfg.Alpha, cfg.Delta, cfg.BAI, cfg.UseRelaxation)
}

// buildHandler assembles the full HTTP surface: the OneAPI handler
// (wrapped in the fault middleware when configured) plus the /metrics
// and /debug/flare observability endpoints, which bypass fault
// injection. It returns the root handler, the server's flight recorder,
// and the server itself (for the shutdown drain).
func buildHandler(cfg core.Config, faultCfg faults.Config, ringSize int) (http.Handler, *obs.Recorder, *oneapi.Server) {
	rec := obs.New(obs.Options{RingSize: ringSize})
	server := oneapi.NewServer(cfg, nil)
	server.SetRecorder(rec)

	api := oneapi.Handler(server)
	if faultCfg.Enabled() {
		api = faults.Middleware(faults.New(faultCfg), api)
	}
	return &root{api: api, metrics: obs.MetricsHandler(rec.Metrics()), debug: obs.DebugHandler(rec)}, rec, server
}

// root is the process's route table above the API's own: the two
// observability paths by exact match, everything else to the API. No
// ServeMux sits on the way — a request costs two string compares here
// and one pass of oneapi.Handler's table.
type root struct {
	api, metrics, debug http.Handler
}

func (h *root) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/metrics":
		h.metrics.ServeHTTP(w, r)
		writeProcessGauges(w)
	case "/debug/flare":
		h.debug.ServeHTTP(w, r)
	default:
		h.api.ServeHTTP(w, r)
	}
}

// writeProcessGauges appends the process's memory picture to a /metrics
// scrape: the Go runtime's heap, goroutine and GC figures (under the
// Prometheus Go collector's names) and the exact solver's shared
// scratch, so the server's footprint is visible without /proc. Every
// value is read here, at scrape time; nothing on a request or BAI path
// maintains them.
func writeProcessGauges(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sets, scratchBytes := core.SolverScratchStats()
	for _, g := range []struct {
		name, typ string
		v         uint64
	}{
		{"go_memstats_heap_inuse_bytes", "gauge", ms.HeapInuse},
		{"go_memstats_heap_sys_bytes", "gauge", ms.HeapSys},
		{"go_goroutines", "gauge", uint64(runtime.NumGoroutine())},
		{"go_gc_cycles_total", "counter", uint64(ms.NumGC)},
		{"flare_solver_scratch_sets", "gauge", uint64(sets)},
		{"flare_solver_scratch_bytes", "gauge", uint64(scratchBytes)},
	} {
		// A failed write means the scraper hung up; there is no one to tell.
		_, _ = fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", g.name, g.typ, g.name, g.v)
	}
}

// parseWindows parses comma-separated "from-to" blackout windows.
func parseWindows(s string) ([]faults.Window, error) {
	var out []faults.Window
	for _, part := range strings.Split(s, ",") {
		from, to, ok := strings.Cut(strings.TrimSpace(part), "-")
		if !ok {
			return nil, fmt.Errorf("blackout %q: want \"from-to\" (e.g. 60s-90s)", part)
		}
		f, err := time.ParseDuration(from)
		if err != nil {
			return nil, fmt.Errorf("blackout %q: %w", part, err)
		}
		t, err := time.ParseDuration(to)
		if err != nil {
			return nil, fmt.Errorf("blackout %q: %w", part, err)
		}
		out = append(out, faults.Window{From: f, To: t})
	}
	return out, nil
}
