// Command flarebench regenerates every table and figure in the paper's
// evaluation (Tables I-II, Figures 4-12).
//
// Usage:
//
//	flarebench [-scale quick|full] [-factor F] [-runs N] [-only id,...] [-out dir]
//	           [-cpuprofile cpu.prof] [-memprofile mem.prof]
//	flarebench -json BENCH_engine.json
//	flarebench -json-multicell BENCH_multicell.json [-workers N]
//	flarebench -json-oneapi BENCH_oneapi.json [-shards N]
//	flarebench -check-against BENCH_engine.json -check-against BENCH_multicell.json
//	flarebench -trace engine.jsonl
//
// Text tables are printed to stdout; per-figure plot data (CSV) and the
// text views are written under -out (default ./results).
//
// -json measures the canonical engine benchmark (the BenchmarkEngineTick
// workload from internal/benchmarks) and writes its simsec/sec, ns/op
// and allocs/op to the given file, preserving any committed baseline
// block, plus a churn block (the BenchmarkEngineChurn workload's
// simsec/sec and allocs/op, and BenchmarkCellAssemble's ns/op), which
// -check-against gates at the same 20%; -json-multicell does the same
// for the multi-cell scaling curve (the BenchmarkMultiCell workload at
// 1/4/16/64 cells, aggregate simsec/sec per point); -json-oneapi
// measures the control-plane load workload (BenchmarkOneAPILoad: the
// internal/loadgen driver against an in-process sharded OneAPI server,
// BAI rounds/sec plus latency percentiles and sessions/sec). All record
// GOMAXPROCS, worker/shard counts, and the CPU model so numbers are
// comparable across machines.
// -check-against is repeatable (and accepts comma-separated paths): each
// file's Benchmark field names the workload to measure, and the run
// exits nonzero if any measurement regressed more than 20% against that
// file's committed current numbers — the CI perf gates.
//
// -trace runs the same canonical engine workload once with telemetry
// recording enabled, writes its JSONL event stream (readable with
// flaretrace) to the given file, and dumps the run's counters and
// solver-latency histogram in Prometheus text to stdout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/benchmarks"
	"github.com/flare-sim/flare/internal/buildinfo"
	"github.com/flare-sim/flare/internal/cellsim"
	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/experiments"
	"github.com/flare-sim/flare/internal/loadgen"
	"github.com/flare-sim/flare/internal/metrics"
	"github.com/flare-sim/flare/internal/obs"
	"github.com/flare-sim/flare/internal/oneapi"
	"github.com/flare-sim/flare/internal/profiling"
)

func main() {
	os.Exit(run())
}

// benchEnv captures the execution environment of a measurement so
// committed bench numbers are interpretable across machines.
type benchEnv struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers,omitempty"`
	Shards     int    `json:"shards,omitempty"`
	CPUModel   string `json:"cpu_model,omitempty"`
}

// scalePoint is one cell count of the multi-cell scaling curve.
// SimsecPerSec is aggregate: cells x simulated seconds / wall second.
type scalePoint struct {
	Cells        int     `json:"cells"`
	SimsecPerSec float64 `json:"simsec_per_sec"`
	NsPerOp      int64   `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
}

// churnPoint is the engine under session churn (BenchmarkEngineChurn:
// 200 declared sessions, about 12 live, 400 simulated seconds) plus
// what assembling that cell costs (BenchmarkCellAssemble). It rides in
// the engine file: same engine, the workload where idle sessions are
// the cost.
type churnPoint struct {
	SimsecPerSec float64 `json:"simsec_per_sec"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	AssembleNs   int64   `json:"assemble_ns"`
}

// benchPoint is one measurement: the single-cell engine numbers (with
// the churn block), the scaling curve in Points (BenchmarkMultiCell),
// or the control-plane load numbers (BenchmarkOneAPILoad).
type benchPoint struct {
	Label        string       `json:"label,omitempty"`
	SimsecPerSec float64      `json:"simsec_per_sec,omitempty"`
	NsPerOp      int64        `json:"ns_per_op,omitempty"`
	AllocsPerOp  int64        `json:"allocs_per_op,omitempty"`
	Churn        *churnPoint  `json:"churn,omitempty"`
	Env          *benchEnv    `json:"env,omitempty"`
	Points       []scalePoint `json:"points,omitempty"`

	// BenchmarkOneAPILoad fields: BAI rounds/sec is the gated metric;
	// the rest contextualise it.
	RoundsPerSec   float64 `json:"rounds_per_sec,omitempty"`
	SessionsPerSec float64 `json:"sessions_per_sec,omitempty"`
	Sessions       int     `json:"sessions,omitempty"`
	P50Seconds     float64 `json:"p50_seconds,omitempty"`
	P95Seconds     float64 `json:"p95_seconds,omitempty"`
	P99Seconds     float64 `json:"p99_seconds,omitempty"`
}

// benchFile is the BENCH_engine.json / BENCH_multicell.json schema: the
// committed pre-change baseline (never overwritten by -json) and the
// current measurement. The Benchmark field names the workload, which is
// how -check-against knows what to measure for each file it is given.
type benchFile struct {
	Benchmark string      `json:"benchmark"`
	Metric    string      `json:"metric"`
	Baseline  *benchPoint `json:"baseline,omitempty"`
	Current   *benchPoint `json:"current"`
}

const (
	engineBenchName    = "BenchmarkEngineTick"
	multiCellBenchName = "BenchmarkMultiCell"
	oneAPIBenchName    = "BenchmarkOneAPILoad"
)

// measureEnv snapshots the environment; workers is the effective
// worker-pool width of the measured workload (1 for the single-cell
// engine benchmark).
func measureEnv(workers int) *benchEnv {
	return &benchEnv{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		CPUModel:   benchmarks.CPUModel(),
	}
}

// measureEngine runs the canonical engine workload under the testing
// benchmark driver and converts the result to a benchPoint.
func measureEngine() (benchPoint, error) {
	var failed error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cellsim.Run(benchmarks.EngineTickConfig(uint64(i + 1))); err != nil {
				failed = err
				b.Fatal(err)
			}
		}
	})
	if failed != nil {
		return benchPoint{}, failed
	}
	churn, err := measureChurn()
	if err != nil {
		return benchPoint{}, err
	}
	ns := res.NsPerOp()
	return benchPoint{
		SimsecPerSec: benchmarks.EngineSimSeconds / (float64(ns) / 1e9),
		NsPerOp:      ns,
		AllocsPerOp:  res.AllocsPerOp(),
		Churn:        churn,
		Env:          measureEnv(1),
	}, nil
}

// measureChurn runs the session-churn engine workload and the assembly
// of its cell, the same loops as BenchmarkEngineChurn and
// BenchmarkCellAssemble.
func measureChurn() (*churnPoint, error) {
	var failed error
	run := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cellsim.Run(benchmarks.EngineChurnConfig(uint64(i + 1))); err != nil {
				failed = err
				b.Fatal(err)
			}
		}
	})
	if failed != nil {
		return nil, failed
	}
	cfg := benchmarks.EngineChurnConfig(1)
	assemble := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cellsim.New(cfg); err != nil {
				failed = err
				b.Fatal(err)
			}
		}
	})
	if failed != nil {
		return nil, failed
	}
	return &churnPoint{
		SimsecPerSec: benchmarks.EngineChurnSimSeconds / (float64(run.NsPerOp()) / 1e9),
		AllocsPerOp:  run.AllocsPerOp(),
		AssembleNs:   assemble.NsPerOp(),
	}, nil
}

// measureMultiCell runs the multi-cell scaling workload (the
// BenchmarkMultiCell cell counts) through the inter-cell worker pool
// and returns the aggregate-simsec/sec curve. workers 0 means
// GOMAXPROCS, mirroring cellsim.MultiConfig.
func measureMultiCell(workers int) (benchPoint, error) {
	effective := workers
	if effective <= 0 {
		effective = runtime.GOMAXPROCS(0)
	}
	pt := benchPoint{Env: measureEnv(effective)}
	for _, cells := range benchmarks.MultiCellCounts() {
		cells := cells
		var failed error
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				server := oneapi.NewServer(core.DefaultConfig(), nil)
				cfgs := benchmarks.MultiCellConfigs(cells, uint64(i*cells+1))
				if _, err := cellsim.RunMultiConfig(context.Background(),
					cellsim.MultiConfig{Workers: workers}, server, cfgs...); err != nil {
					failed = err
					b.Fatal(err)
				}
			}
		})
		if failed != nil {
			return benchPoint{}, failed
		}
		ns := res.NsPerOp()
		pt.Points = append(pt.Points, scalePoint{
			Cells:        cells,
			SimsecPerSec: float64(cells) * benchmarks.MultiCellSimSeconds / (float64(ns) / 1e9),
			NsPerOp:      ns,
			AllocsPerOp:  res.AllocsPerOp(),
		})
	}
	return pt, nil
}

// measureOneAPI runs the canonical control-plane load workload: the
// loadgen driver against an in-process HTTP OneAPI server sharded
// shards ways (0 = the oneapi default). The gated metric is BAI
// rounds/sec; sessions/sec and the round-trip percentiles ride along.
// The workload is HTTP round-trips over a loopback socket, so
// wall-clock noise on a shared CI core is large; the measurement is
// best-of-three by rounds/sec, matching the file's committed
// best-of-three.
func measureOneAPI(shards int) (benchPoint, error) {
	var best benchPoint
	for i := 0; i < 3; i++ {
		pt, err := measureOneAPIOnce(shards)
		if err != nil {
			return benchPoint{}, err
		}
		if pt.RoundsPerSec > best.RoundsPerSec {
			best = pt
		}
	}
	return best, nil
}

func measureOneAPIOnce(shards int) (benchPoint, error) {
	var server *oneapi.Server
	if shards > 0 {
		server = oneapi.NewServerSharded(benchmarks.OneAPIServerConfig(), nil, shards)
	} else {
		server = oneapi.NewServer(benchmarks.OneAPIServerConfig(), nil)
	}
	defer server.Close()
	srv := httptest.NewServer(oneapi.Handler(server))
	defer srv.Close()

	res, err := loadgen.Run(benchmarks.OneAPILoadConfig(srv.URL), nil)
	if err != nil {
		return benchPoint{}, err
	}
	if res.OpenErrors > 0 || res.RoundErrors > 0 || res.PollErrors > 0 {
		return benchPoint{}, fmt.Errorf("load run had errors: %d open, %d round, %d poll",
			res.OpenErrors, res.RoundErrors, res.PollErrors)
	}
	env := measureEnv(0)
	env.Shards = server.Shards()
	return benchPoint{
		Env:            env,
		RoundsPerSec:   res.RoundsPerSec,
		SessionsPerSec: res.SessionsPerSec,
		Sessions:       res.Sessions,
		P50Seconds:     res.P50Seconds,
		P95Seconds:     res.P95Seconds,
		P99Seconds:     res.P99Seconds,
	}, nil
}

func loadBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// writeBenchFile refreshes path with cur as the new current
// measurement, preserving any committed baseline block.
func writeBenchFile(path, benchmark, metric string, cur *benchPoint) int {
	out := benchFile{Benchmark: benchmark, Metric: metric, Current: cur}
	if prev, err := loadBenchFile(path); err == nil {
		out.Baseline = prev.Baseline // the committed baseline is never overwritten
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "flarebench: %v\n", err)
		return 1
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "flarebench: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s\n", path)
	return 0
}

// checkEngine gates the single-cell measurement against a committed
// file: >20% simsec/sec regression fails, on the busy cell and — when
// the file carries a churn block — on the churn cell.
func checkEngine(path string, ref *benchFile, cur benchPoint) int {
	if ref.Current == nil || ref.Current.SimsecPerSec <= 0 {
		fmt.Fprintf(os.Stderr, "flarebench: %s has no current measurement to check against\n", path)
		return 1
	}
	code := checkSimsec("", cur.SimsecPerSec, ref.Current.SimsecPerSec)
	if ref.Current.Churn != nil && cur.Churn != nil {
		if c := checkSimsec(" (churn)", cur.Churn.SimsecPerSec, ref.Current.Churn.SimsecPerSec); c != 0 {
			code = c
		}
	}
	return code
}

// checkSimsec is one 20% simsec/sec gate; what names the workload in
// the messages.
func checkSimsec(what string, cur, committed float64) int {
	floor := 0.8 * committed
	if cur < floor {
		fmt.Fprintf(os.Stderr,
			"flarebench: PERF REGRESSION%s: %.1f simsec/sec is more than 20%% below the committed %.1f (floor %.1f)\n",
			what, cur, committed, floor)
		return 1
	}
	fmt.Printf("perf check OK%s: %.1f simsec/sec vs committed %.1f (floor %.1f)\n",
		what, cur, committed, floor)
	return 0
}

// checkMultiCell gates every point of the measured scaling curve
// against the committed curve, matched by cell count.
func checkMultiCell(path string, ref *benchFile, cur benchPoint) int {
	if ref.Current == nil || len(ref.Current.Points) == 0 {
		fmt.Fprintf(os.Stderr, "flarebench: %s has no scaling curve to check against\n", path)
		return 1
	}
	committed := make(map[int]scalePoint, len(ref.Current.Points))
	for _, p := range ref.Current.Points {
		committed[p.Cells] = p
	}
	code := 0
	for _, p := range cur.Points {
		want, ok := committed[p.Cells]
		if !ok || want.SimsecPerSec <= 0 {
			continue // cell count not in the committed curve
		}
		floor := 0.8 * want.SimsecPerSec
		if p.SimsecPerSec < floor {
			fmt.Fprintf(os.Stderr,
				"flarebench: PERF REGRESSION at %d cells: %.1f aggregate simsec/sec is more than 20%% below the committed %.1f (floor %.1f)\n",
				p.Cells, p.SimsecPerSec, want.SimsecPerSec, floor)
			code = 1
			continue
		}
		fmt.Printf("perf check OK at %d cells: %.1f aggregate simsec/sec vs committed %.1f (floor %.1f)\n",
			p.Cells, p.SimsecPerSec, want.SimsecPerSec, floor)
	}
	return code
}

// checkOneAPI gates the control-plane load measurement: >20% BAI
// rounds/sec regression fails.
func checkOneAPI(path string, ref *benchFile, cur benchPoint) int {
	if ref.Current == nil || ref.Current.RoundsPerSec <= 0 {
		fmt.Fprintf(os.Stderr, "flarebench: %s has no current measurement to check against\n", path)
		return 1
	}
	floor := 0.8 * ref.Current.RoundsPerSec
	if cur.RoundsPerSec < floor {
		fmt.Fprintf(os.Stderr,
			"flarebench: PERF REGRESSION: %.1f BAI rounds/sec is more than 20%% below the committed %.1f (floor %.1f)\n",
			cur.RoundsPerSec, ref.Current.RoundsPerSec, floor)
		return 1
	}
	fmt.Printf("perf check OK: %.1f BAI rounds/sec vs committed %.1f (floor %.1f)\n",
		cur.RoundsPerSec, ref.Current.RoundsPerSec, floor)
	return 0
}

// runBench handles -json / -json-multicell / -json-oneapi /
// -check-against and returns the process exit code. Each -check-against
// file is measured with the workload its Benchmark field names;
// measurements are shared across files so passing every gate costs one
// run per workload.
func runBench(jsonPath, jsonMultiPath, jsonOneAPIPath string, checkPaths []string, workers, shards int) int {
	needEngine := jsonPath != ""
	needMulti := jsonMultiPath != ""
	needOneAPI := jsonOneAPIPath != ""

	type loaded struct {
		path string
		file *benchFile
	}
	var refs []loaded
	for _, path := range checkPaths {
		ref, err := loadBenchFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flarebench: %v\n", err)
			return 1
		}
		switch ref.Benchmark {
		case engineBenchName:
			needEngine = true
		case multiCellBenchName:
			needMulti = true
		case oneAPIBenchName:
			needOneAPI = true
		default:
			fmt.Fprintf(os.Stderr, "flarebench: %s names unknown benchmark %q\n", path, ref.Benchmark)
			return 1
		}
		refs = append(refs, loaded{path, ref})
	}
	if !needEngine && !needMulti && !needOneAPI {
		needEngine = true // bare invocation: measure the engine
	}

	var engineCur, multiCur, oneAPICur benchPoint
	if needEngine {
		var err error
		if engineCur, err = measureEngine(); err != nil {
			fmt.Fprintf(os.Stderr, "flarebench: engine benchmark: %v\n", err)
			return 1
		}
		fmt.Printf("%s: %.1f simsec/sec, %d ns/op, %d allocs/op (GOMAXPROCS=%d)\n",
			engineBenchName, engineCur.SimsecPerSec, engineCur.NsPerOp,
			engineCur.AllocsPerOp, engineCur.Env.GOMAXPROCS)
		fmt.Printf("BenchmarkEngineChurn: %.1f simsec/sec, %d allocs/op; BenchmarkCellAssemble: %d ns/op\n",
			engineCur.Churn.SimsecPerSec, engineCur.Churn.AllocsPerOp, engineCur.Churn.AssembleNs)
	}
	if needMulti {
		var err error
		if multiCur, err = measureMultiCell(workers); err != nil {
			fmt.Fprintf(os.Stderr, "flarebench: multi-cell benchmark: %v\n", err)
			return 1
		}
		for _, p := range multiCur.Points {
			fmt.Printf("%s/cells=%d: %.1f aggregate simsec/sec, %d ns/op, %d allocs/op (workers=%d, GOMAXPROCS=%d)\n",
				multiCellBenchName, p.Cells, p.SimsecPerSec, p.NsPerOp, p.AllocsPerOp,
				multiCur.Env.Workers, multiCur.Env.GOMAXPROCS)
		}
	}

	if needOneAPI {
		var err error
		if oneAPICur, err = measureOneAPI(shards); err != nil {
			fmt.Fprintf(os.Stderr, "flarebench: oneapi load benchmark: %v\n", err)
			return 1
		}
		fmt.Printf("%s: %.1f BAI rounds/sec, %.0f sessions/sec, %d sessions, p50 %.1fms p95 %.1fms p99 %.1fms (shards=%d, GOMAXPROCS=%d)\n",
			oneAPIBenchName, oneAPICur.RoundsPerSec, oneAPICur.SessionsPerSec, oneAPICur.Sessions,
			oneAPICur.P50Seconds*1e3, oneAPICur.P95Seconds*1e3, oneAPICur.P99Seconds*1e3,
			oneAPICur.Env.Shards, oneAPICur.Env.GOMAXPROCS)
	}

	if jsonPath != "" {
		if code := writeBenchFile(jsonPath, engineBenchName, "simsec/sec", &engineCur); code != 0 {
			return code
		}
	}
	if jsonMultiPath != "" {
		if code := writeBenchFile(jsonMultiPath, multiCellBenchName, "aggregate simsec/sec", &multiCur); code != 0 {
			return code
		}
	}
	if jsonOneAPIPath != "" {
		if code := writeBenchFile(jsonOneAPIPath, oneAPIBenchName, "bai rounds/sec", &oneAPICur); code != 0 {
			return code
		}
	}

	code := 0
	for _, ref := range refs {
		switch ref.file.Benchmark {
		case engineBenchName:
			if c := checkEngine(ref.path, ref.file, engineCur); c != 0 {
				code = c
			}
		case multiCellBenchName:
			if c := checkMultiCell(ref.path, ref.file, multiCur); c != 0 {
				code = c
			}
		case oneAPIBenchName:
			if c := checkOneAPI(ref.path, ref.file, oneAPICur); c != 0 {
				code = c
			}
		}
	}
	return code
}

// runTrace executes the canonical engine workload once with the flight
// recorder attached, streaming its event log to tracePath and dumping
// the derived counters to stdout — the benchmark-shaped way to produce
// a flaretrace-readable trace and a metrics snapshot.
func runTrace(tracePath string) int {
	sink, err := obs.CreateJSONLFile(tracePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flarebench: %v\n", err)
		return 1
	}
	rec := obs.New(obs.Options{RingSize: -1, Sinks: []obs.Sink{sink}})
	cfg := benchmarks.EngineTickConfig(1)
	cfg.Obs = rec
	if _, err := cellsim.Run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "flarebench: engine workload: %v\n", err)
		return 1
	}
	if err := rec.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "flarebench: trace: %v\n", err)
		return 1
	}
	if err := rec.Metrics().WritePrometheus(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "flarebench: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s (%d events recorded)\n", tracePath, rec.Metrics().Events.Load())
	return 0
}

func run() int {
	var (
		scaleName     = flag.String("scale", "quick", `experiment scale: "quick" or "full" (paper durations, 20 runs)`)
		factor        = flag.Float64("factor", 0, "override duration factor (1 = paper scale)")
		runs          = flag.Int("runs", 0, "override runs per data point")
		only          = flag.String("only", "", "comma-separated experiment IDs (default: all)")
		outDir        = flag.String("out", "results", "output directory for tables and CSV series")
		list          = flag.Bool("list", false, "list experiment IDs and exit")
		plot          = flag.Bool("plot", false, "render ASCII plots of each experiment's series")
		jsonPath      = flag.String("json", "", "measure the engine benchmark and write BENCH_engine.json-style output here (skips experiments)")
		jsonMultiPath = flag.String("json-multicell", "", "measure the multi-cell scaling curve and write BENCH_multicell.json-style output here (skips experiments)")
		jsonOneAPI    = flag.String("json-oneapi", "", "measure the control-plane load workload and write BENCH_oneapi.json-style output here (skips experiments)")
		workers       = flag.Int("workers", 0, "worker-pool width for the multi-cell measurement (0 = GOMAXPROCS)")
		shards        = flag.Int("shards", 0, "shard count of the OneAPI server under load measurement (0 = oneapi default)")
		tracePath     = flag.String("trace", "", "run the canonical engine workload once with telemetry recording, write its JSONL trace here, and dump counters (skips experiments)")
		cpuprofile    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile    = flag.String("memprofile", "", "write a heap profile at exit to this file")
		version       = flag.Bool("version", false, "print version and exit")
	)
	var checkPaths []string
	flag.Func("check-against",
		"measure the workload a baseline file names and fail on >20% simsec/sec regression; repeatable, and accepts comma-separated paths (skips experiments)",
		func(v string) error {
			for _, p := range strings.Split(v, ",") {
				if p = strings.TrimSpace(p); p != "" {
					checkPaths = append(checkPaths, p)
				}
			}
			return nil
		})
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "flarebench")
		return 0
	}

	stopCPU, err := profiling.StartCPU(*cpuprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flarebench: %v\n", err)
		return 1
	}
	defer func() {
		stopCPU()
		if err := profiling.WriteHeap(*memprofile); err != nil {
			fmt.Fprintf(os.Stderr, "flarebench: %v\n", err)
		}
	}()

	if *jsonPath != "" || *jsonMultiPath != "" || *jsonOneAPI != "" || len(checkPaths) > 0 {
		return runBench(*jsonPath, *jsonMultiPath, *jsonOneAPI, checkPaths, *workers, *shards)
	}
	if *tracePath != "" {
		return runTrace(*tracePath)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.Quick()
	case "full":
		scale = experiments.Full()
	default:
		fmt.Fprintf(os.Stderr, "flarebench: unknown scale %q\n", *scaleName)
		return 2
	}
	if *factor > 0 {
		scale.DurationFactor = *factor
	}
	if *runs > 0 {
		scale.Runs = *runs
	}

	selected := experiments.All()
	if *only != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*only, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintf(os.Stderr, "flarebench: %v\n", err)
				return 2
			}
			selected = append(selected, e)
		}
	}

	failed := 0
	for _, e := range selected {
		start := time.Now()
		fmt.Printf("--- running %s (%s) ...\n", e.ID, e.Title)
		rep, err := e.Run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flarebench: %s: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Print(rep.String())
		if *plot && len(rep.Series) > 0 {
			fmt.Println(metrics.AsciiPlot(72, 18, rep.Series...))
		}
		fmt.Printf("--- %s done in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if err := rep.WriteFiles(*outDir); err != nil {
			fmt.Fprintf(os.Stderr, "flarebench: %s: %v\n", e.ID, err)
			failed++
		}
	}
	if failed > 0 {
		return 1
	}
	fmt.Printf("wrote results to %s\n", *outDir)
	return 0
}
