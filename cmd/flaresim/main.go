// Command flaresim runs a single cell simulation and prints its summary:
// per-client bitrate/stability/stall metrics plus the cell-level
// aggregates the paper reports.
//
// Usage:
//
//	flaresim [-scheme flare|festive|google|avis] [-duration 1200s]
//	         [-videos 8] [-data 0] [-channel static|cyclic|mobility]
//	         [-itbs 12] [-ladder sim|testbed|fine] [-seed 1]
//	         [-alpha 1.0] [-delta 4] [-relax]
//	         [-mix "flare:4,festive:4"]
//	         [-churn 40s -offered-load 2.0] [-admission] [-admission-queue 8]
//	         [-downgrade] [-objective eq2|upf]
//	         [-ctrl-loss 0.3] [-ctrl-blackout 60s-90s]
//	         [-fallback-polls 3] [-fallback-age 4]
//	         [-trace run.jsonl] [-metrics-dump]
//	         [-cpuprofile cpu.prof] [-memprofile mem.prof] [-version]
//
// -churn replaces the fixed population with Poisson arrivals and
// heavy-tailed session lengths; -offered-load scales the arrival rate
// against the cell's floor-carrying capacity (2.0 = twice what the RB
// budget can hold at the ladder floor). -admission/-downgrade turn on
// the saturation machinery: sessions the budget cannot floor are
// refused (and queued), and overload sheds per-flow ceilings down the
// ladder with hysteresis.
//
// -mix runs a mixed-scheme cell: a comma-separated list of
// scheme:count groups that overrides -scheme/-videos for the video
// population (each group gets its own driver; results are attributed
// per scheme).
//
// -trace records every control-plane decision the run makes (BAI
// solves, Algorithm 1 clamps, installs, fallbacks, stalls, injected
// faults, ...) as a JSONL event stream for flaretrace; "-" streams the
// events to stdout and suppresses the human report so the output pipes
// cleanly into `flaretrace -`. -metrics-dump prints the run's telemetry
// counters and solver-latency histogram (Prometheus text) to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/flare-sim/flare/internal/abr"
	"github.com/flare-sim/flare/internal/buildinfo"
	"github.com/flare-sim/flare/internal/cellsim"
	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/faults"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/metrics"
	"github.com/flare-sim/flare/internal/obs"
	"github.com/flare-sim/flare/internal/profiling"
)

// parseScheme resolves a -scheme or -mix scheme name in any case and
// with surrounding space ("FLARE", " festive").
func parseScheme(name string) (cellsim.Scheme, error) {
	return cellsim.ParseScheme(strings.ToLower(strings.TrimSpace(name)))
}

// parseWindows parses comma-separated "from-to" blackout windows, e.g.
// "60s-90s,300s-330s".
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

func main() {
	os.Exit(run())
}

func run() int {
	var (
		schemeName  = flag.String("scheme", "flare", "rate adaptation scheme: flare, festive, google, avis, bba, mpc")
		duration    = flag.Duration("duration", 1200*time.Second, "simulated duration")
		videos      = flag.Int("videos", 8, "number of video clients")
		data        = flag.Int("data", 0, "number of greedy data flows")
		channelName = flag.String("channel", "mobility", "channel model: static, cyclic, mobility")
		iTbs        = flag.Int("itbs", 12, "iTbs for the static channel")
		ladderName  = flag.String("ladder", "sim", "bitrate ladder: sim, testbed, fine")
		segDur      = flag.Duration("segment", 10*time.Second, "segment duration")
		seed        = flag.Uint64("seed", 1, "simulation seed")
		alpha       = flag.Float64("alpha", 1.0, "FLARE data/video priority")
		delta       = flag.Int("delta", 4, "FLARE stability parameter")
		relax       = flag.Bool("relax", false, "use FLARE's continuous-relaxation solver")
		vbr         = flag.Float64("vbr", 0, "VBR segment-size jitter (0 = CBR, e.g. 0.3)")
		mix         = flag.String("mix", "", `mixed-scheme cell as "scheme:count,scheme:count" (e.g. "flare:4,festive:4"); overrides -scheme/-videos`)

		churnDur    = flag.Duration("churn", 0, "enable session churn: mean session length (Poisson arrivals, Pareto durations); pairs with -offered-load and overrides -videos")
		offeredLoad = flag.Float64("offered-load", 0, "churn arrival rate as a multiple of the cell's floor-carrying capacity (requires -churn and -channel static)")
		admission   = flag.Bool("admission", false, "enable FLARE admission control: refuse sessions the RB budget cannot keep at the ladder floor")
		admQueue    = flag.Int("admission-queue", 0, "admission wait-queue depth (0 = default, negative = no queue)")
		downgrade   = flag.Bool("downgrade", false, "enable the FLARE overload downgrade ladder (ceiling shedding with hysteresis)")
		objective   = flag.String("objective", "", "FLARE utility objective: eq2 (paper default) or upf (utility-proportional fairness)")

		ctrlLoss     = flag.Float64("ctrl-loss", 0, "control-plane drop rate for stats reports and assignment polls (0..1)")
		ctrlSeed     = flag.Uint64("ctrl-seed", 0xfa17, "fault injector seed (independent of -seed)")
		ctrlBlackout = flag.String("ctrl-blackout", "", `control-plane blackout window, e.g. "60s-90s" (repeatable via comma: "60s-90s,300s-330s")`)
		fbPolls      = flag.Int("fallback-polls", 0, "plugin fallback after K consecutive failed polls (0 = default 3)")
		fbAge        = flag.Int("fallback-age", 0, "plugin fallback after an assignment M BAIs stale (0 = default 4)")

		tracePath   = flag.String("trace", "", `record the run's telemetry event stream as JSONL to this file ("-" = stdout, suppressing the report)`)
		metricsDump = flag.Bool("metrics-dump", false, "print telemetry counters and solver-latency histogram (Prometheus text) to stderr after the run")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "flaresim")
		return 0
	}

	stopCPU, err := profiling.StartCPU(*cpuprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flaresim: %v\n", err)
		return 1
	}
	defer func() {
		stopCPU()
		if err := profiling.WriteHeap(*memprofile); err != nil {
			fmt.Fprintf(os.Stderr, "flaresim: %v\n", err)
		}
	}()

	scheme, err := parseScheme(*schemeName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flaresim: -scheme: %v\n", err)
		return 2
	}
	var groups []cellsim.FlowGroup
	if *mix != "" {
		for _, part := range strings.Split(*mix, ",") {
			name, countStr, ok := strings.Cut(strings.TrimSpace(part), ":")
			if !ok {
				fmt.Fprintf(os.Stderr, "flaresim: -mix group %q: want \"scheme:count\"\n", part)
				return 2
			}
			gs, err := parseScheme(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "flaresim: -mix: %v\n", err)
				return 2
			}
			count, err := strconv.Atoi(strings.TrimSpace(countStr))
			if err != nil || count <= 0 {
				fmt.Fprintf(os.Stderr, "flaresim: -mix group %q: bad count\n", part)
				return 2
			}
			groups = append(groups, cellsim.FlowGroup{Scheme: gs, Count: count})
		}
		scheme = groups[0].Scheme
		nVideos := 0
		for _, g := range groups {
			nVideos += g.Count
		}
		*videos = nVideos
	}
	ladder, ok := map[string]has.Ladder{
		"sim":     has.SimLadder(),
		"testbed": has.TestbedLadder(),
		"fine":    has.FineLadder(),
	}[*ladderName]
	if !ok {
		fmt.Fprintf(os.Stderr, "flaresim: unknown ladder %q\n", *ladderName)
		return 2
	}

	cfg := cellsim.DefaultConfig(scheme)
	cfg.Seed = *seed
	cfg.Duration = *duration
	cfg.NumVideo = *videos
	if len(groups) > 0 {
		cfg.VideoGroups = groups
		cfg.NumVideo = 0
	}
	cfg.NumData = *data
	cfg.Ladder = ladder
	cfg.SegmentDuration = *segDur
	cfg.Flare.Alpha = *alpha
	cfg.Flare.Delta = *delta
	cfg.Flare.UseRelaxation = *relax
	cfg.VBRJitter = *vbr
	cfg.ControlFaults = faults.Config{Seed: *ctrlSeed, DropRate: *ctrlLoss}
	if *ctrlBlackout != "" {
		windows, err := parseWindows(*ctrlBlackout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flaresim: %v\n", err)
			return 2
		}
		cfg.ControlFaults.Blackouts = windows
	}
	cfg.Fallback = abr.FallbackConfig{AfterFailedPolls: *fbPolls, MaxAssignmentAgeBAIs: *fbAge}
	cfg.Flare.AdmissionControl = *admission
	cfg.Flare.AdmissionQueue = *admQueue
	cfg.Flare.DowngradeLadder = *downgrade
	cfg.Flare.Objective = *objective
	if _, ok := core.ObjectiveByName(*objective); !ok {
		fmt.Fprintf(os.Stderr, "flaresim: unknown objective %q (want one of %s)\n",
			*objective, strings.Join(core.ObjectiveNames(), ", "))
		return 2
	}

	switch *channelName {
	case "static":
		cfg.Channel = cellsim.ChannelSpec{Kind: cellsim.ChannelStatic, StaticITbs: *iTbs}
	case "cyclic":
		cfg.Channel = cellsim.ChannelSpec{
			Kind: cellsim.ChannelCyclic, CyclicMin: 1, CyclicMax: 12,
			CyclicPeriod: 4 * time.Minute,
		}
	case "mobility":
		cfg.Channel = cellsim.ChannelSpec{
			Kind:     cellsim.ChannelMobility,
			Mobility: lte.DefaultMobilityConfig(*videos + *data),
		}
	default:
		fmt.Fprintf(os.Stderr, "flaresim: unknown channel %q\n", *channelName)
		return 2
	}

	// Churn: -churn gives the mean session length, -offered-load the
	// arrival rate as a multiple of the cell's floor-carrying capacity
	// (Config.OfferedChurn). The capacity estimate needs a fixed link,
	// so churn is pinned to the static channel.
	if *churnDur > 0 || *offeredLoad > 0 {
		if *churnDur <= 0 || *offeredLoad <= 0 {
			fmt.Fprintln(os.Stderr, "flaresim: -churn and -offered-load go together")
			return 2
		}
		if cfg.Channel.Kind != cellsim.ChannelStatic {
			fmt.Fprintln(os.Stderr, "flaresim: -offered-load needs -channel static (the floor-capacity estimate is per-iTbs)")
			return 2
		}
		if len(groups) > 0 {
			fmt.Fprintln(os.Stderr, "flaresim: -churn does not support -mix")
			return 2
		}
		cfg.NumVideo = 0 // the generator populates the cell
		cfg.Churn = cfg.OfferedChurn(*offeredLoad, *churnDur)
	}

	// Telemetry: -trace streams the event log as JSONL, -metrics-dump
	// prints the derived counters. Either one turns the recorder on;
	// without them the run pays the nil-recorder (zero allocation)
	// fast path.
	var rec *obs.Recorder
	quietReport := false
	if *tracePath != "" || *metricsDump {
		var sinks []obs.Sink
		switch *tracePath {
		case "":
		case "-":
			// Hide os.Stdout's Closer so the sink cannot close stdout.
			sinks = append(sinks, obs.NewJSONLSink(struct{ io.Writer }{os.Stdout}))
			quietReport = true
		default:
			sink, err := obs.CreateJSONLFile(*tracePath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "flaresim: %v\n", err)
				return 1
			}
			sinks = append(sinks, sink)
		}
		rec = obs.New(obs.Options{RingSize: -1, Sinks: sinks})
		cfg.Obs = rec
	}

	res, err := cellsim.Run(cfg)
	if cerr := rec.Close(); cerr != nil && err == nil {
		fmt.Fprintf(os.Stderr, "flaresim: trace: %v\n", cerr)
		return 1
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "flaresim: %v\n", err)
		return 1
	}
	if *metricsDump {
		if err := rec.Metrics().WritePrometheus(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "flaresim: metrics dump: %v\n", err)
		}
	}
	if quietReport {
		return 0
	}

	nVideo := *videos
	if cfg.Churn.Enabled {
		nVideo = len(res.Clients)
	}
	fmt.Printf("%s over %v (%d video, %d data, %s channel, seed %d)\n\n",
		scheme, *duration, nVideo, *data, *channelName, *seed)
	tbl := metrics.NewTable("Per-client results",
		"avg rate", "avg tput", "changes", "segments", "stall s", "startup s", "QoE")
	addClient := func(kind string, c cellsim.ClientResult) {
		tbl.AddRow(fmt.Sprintf("%s %d", kind, c.FlowID),
			metrics.FormatKbps(c.AvgRateBps),
			metrics.FormatKbps(c.AvgTputBps),
			fmt.Sprintf("%d", c.NumChanges),
			fmt.Sprintf("%d", c.Segments),
			fmt.Sprintf("%.1f", c.StallSeconds),
			fmt.Sprintf("%.1f", c.StartupDelaySeconds),
			fmt.Sprintf("%.0f", c.QoEScore),
		)
	}
	for _, c := range res.Clients {
		kind := "video"
		if len(groups) > 0 {
			kind = strings.ToLower(c.Scheme.String())
		}
		addClient(kind, c)
	}
	for _, d := range res.Data {
		tbl.AddRow(fmt.Sprintf("data %d", d.FlowID),
			"-", metrics.FormatKbps(d.AvgTputBps), "-", "-", "-", "-", "-")
	}
	fmt.Println(tbl.String())
	fmt.Printf("mean video rate:     %s\n", metrics.FormatKbps(res.MeanClientRate()))
	fmt.Printf("mean changes:        %.1f\n", res.MeanChanges())
	fmt.Printf("total stall:         %.1f s\n", res.TotalStallSeconds())
	fmt.Printf("Jain (rates):        %.3f\n", res.JainOfRates())
	fmt.Printf("Jain (tputs):        %.3f\n", res.JainOfTputs())
	if n := len(res.SolveTimesSec); n > 0 {
		cdf := metrics.NewCDF(res.SolveTimesSec)
		fmt.Printf("solver (n=%d):       median %.3f ms, max %.3f ms\n",
			n, cdf.Quantile(0.5)*1000, cdf.Max()*1000)
	}
	if cp := res.ControlPlane; cp != (cellsim.ControlPlaneStats{}) || res.TotalFallbackTransitions() > 0 {
		fmt.Printf("ctrl-plane faults:   %d reports lost, %d polls lost, %d enforce failures\n",
			cp.ReportsLost, cp.PollsLost, cp.EnforceFailures)
		var fbBAIs int
		for _, c := range res.Clients {
			fbBAIs += c.FallbackIntervals
		}
		fmt.Printf("plugin fallback:     %d mode transitions, %d degraded BAIs across clients\n",
			res.TotalFallbackTransitions(), fbBAIs)
	}
	if *admission {
		adm := 0
		for _, c := range res.Clients {
			if c.Admitted {
				adm++
			}
		}
		fmt.Printf("admission:           %d/%d flows admitted, %d refused opens\n",
			adm, len(res.Clients), res.ControlPlane.AdmissionRejects)
	}
	return 0
}
