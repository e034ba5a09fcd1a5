package flare

// One sub-benchmark per shipped flaresuite scenario (every table and
// figure in the paper's evaluation, the extensions and the matrix-native
// scenarios), plus micro-benchmarks and ablations of the core design
// choices. The spec benchmarks run the whole runner at a benchmark
// scale (factor 0.05, 2 seeded runs per point); `flaresuite run -scale
// full` reproduces the paper-scale outputs.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/benchmarks"
	"github.com/flare-sim/flare/internal/cellsim"
	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/flaresuite"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/obs"
	"github.com/flare-sim/flare/internal/oneapi"
	"github.com/flare-sim/flare/internal/sim"
)

// BenchmarkScenario runs every shipped spec's base point through
// the flaresuite runner. Acceptance gates are not held at this scale
// (a spec may report fail); a spec that produces neither notes nor
// metrics fails the benchmark.
func BenchmarkScenario(b *testing.B) {
	for _, spec := range flaresuite.Scenarios() {
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sum, err := flaresuite.Run(context.Background(), flaresuite.Scenarios(), flaresuite.Options{
					Factor: 0.05, Runs: 2, Names: []string{spec.Name},
				})
				if err != nil {
					b.Fatal(err)
				}
				if sc := sum.Scenarios[0]; len(sc.Notes) == 0 && len(sc.Metrics) == 0 {
					b.Fatalf("%s produced no output: %s %v", spec.Name, sc.Status, sc.Failures)
				}
			}
		})
	}
}

// --- Core solver micro-benchmarks (the Figure 9 measurement, isolated).

func solverProblem(nFlows int, ladder has.Ladder) *core.Problem {
	rng := sim.NewRNG(1)
	p := &core.Problem{
		Flows:        make([]core.VideoFlow, nFlows),
		NumDataFlows: 4,
		Alpha:        1,
		TotalRBs:     50_000,
		BAISeconds:   1,
	}
	for u := range p.Flows {
		p.Flows[u] = core.VideoFlow{
			ID:         u,
			Ladder:     ladder,
			Beta:       10,
			ThetaBps:   0.2e6,
			PrevLevel:  rng.Intn(ladder.Len()+1) - 1,
			RBsPerByte: 1 / (5 + rng.Float64()*30),
		}
	}
	return p
}

func benchSolver(b *testing.B, nFlows int, relaxed bool) {
	b.Helper()
	p := solverProblem(nFlows, has.FineLadder())
	exact := core.NewExactSolver()
	relax := core.NewRelaxedSolver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if relaxed {
			_, err = relax.Solve(p)
		} else {
			_, err = exact.Solve(p)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactSolver8(b *testing.B)     { benchSolver(b, 8, false) }
func BenchmarkExactSolver32(b *testing.B)    { benchSolver(b, 32, false) }
func BenchmarkExactSolver128(b *testing.B)   { benchSolver(b, 128, false) }
func BenchmarkRelaxedSolver8(b *testing.B)   { benchSolver(b, 8, true) }
func BenchmarkRelaxedSolver32(b *testing.B)  { benchSolver(b, 32, true) }
func BenchmarkRelaxedSolver128(b *testing.B) { benchSolver(b, 128, true) }

// --- Radio substrate micro-benchmarks.

func benchScheduler(b *testing.B, sched lte.Scheduler, nFlows int) {
	b.Helper()
	enb := lte.NewENodeB(lte.NewUniformStaticChannel(nFlows, 12), sched)
	bearers := make([]*lte.Bearer, nFlows)
	for i := range bearers {
		cls := lte.ClassData
		gbr := 0.0
		if i%2 == 0 {
			cls = lte.ClassVideo
			gbr = 1e6
		}
		bearers[i] = &lte.Bearer{ID: i, UE: i, Class: cls, GBRBits: gbr}
		if _, err := enb.AddBearer(bearers[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, br := range bearers {
			if br.Backlog() < 10_000 {
				br.Enqueue(100_000)
			}
		}
		enb.RunTTI(int64(i))
	}
}

func BenchmarkSchedulerPF8(b *testing.B)       { benchScheduler(b, lte.PFScheduler{}, 8) }
func BenchmarkSchedulerPF64(b *testing.B)      { benchScheduler(b, lte.PFScheduler{}, 64) }
func BenchmarkSchedulerTwoPhase8(b *testing.B) { benchScheduler(b, lte.TwoPhaseGBRScheduler{}, 8) }

// --- End-to-end cell simulation throughput (simulated seconds per
// wall second is the figure of merit: ns/op divided by 60 virtual s).

func benchCell(b *testing.B, scheme cellsim.Scheme) {
	b.Helper()
	cfg := cellsim.DefaultConfig(scheme)
	cfg.Duration = 60 * time.Second
	cfg.NumVideo = 8
	cfg.SegmentDuration = 2 * time.Second
	cfg.Channel = cellsim.ChannelSpec{Kind: cellsim.ChannelStatic, StaticITbs: 12}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := cellsim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCellSimFLARE(b *testing.B)   { benchCell(b, cellsim.SchemeFLARE) }
func BenchmarkCellSimFESTIVE(b *testing.B) { benchCell(b, cellsim.SchemeFESTIVE) }
func BenchmarkCellSimAVIS(b *testing.B)    { benchCell(b, cellsim.SchemeAVIS) }

// BenchmarkEngineTick measures the engine's raw TTI loop through the
// driver seam: a 16-flow FLARE cell over one simulated minute (60 000
// TTIs plus control intervals per iteration). This is the hot path the
// scheme-driver refactor must not tax — compare against
// BenchmarkCellSimFLARE history when touching the engine or driver
// interfaces.
func BenchmarkEngineTick(b *testing.B) {
	// The workload lives in internal/benchmarks so the perf ledger's
	// cell_busy and the whole-run allocation pin run exactly this cell.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cellsim.Run(benchmarks.EngineTickConfig(uint64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(benchmarks.EngineSimSeconds/float64(b.Elapsed().Seconds()/float64(b.N)), "simsec/sec")
}

// BenchmarkEngineChurn measures the engine under session churn: 200
// declared sessions of which about 12 are live at any instant, over 400
// simulated seconds. What it prices is the declared-but-idle session —
// per TTI (settled bearers must stay out of the radio loop) and at
// assembly (timed here too: Run builds the cell).
func BenchmarkEngineChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cellsim.Run(benchmarks.EngineChurnConfig(uint64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(benchmarks.EngineChurnSimSeconds/float64(b.Elapsed().Seconds()/float64(b.N)), "simsec/sec")
}

// BenchmarkCellAssemble measures cellsim.New alone on the churn cell:
// what 200 declared sessions cost before the first TTI runs.
func BenchmarkCellAssemble(b *testing.B) {
	cfg := benchmarks.EngineChurnConfig(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cellsim.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetroCellAssemble is the ledger's metro_shared set-up
// sample: sixteen metro cells assembled through NewInCell on a fresh
// shared OneAPI server, nothing run. The heap is collected before each
// op, outside the timer, as the ledger does before each sample. `make
// profile` writes its CPU profile to metro-assemble-cpu.prof.
func BenchmarkMetroCellAssemble(b *testing.B) {
	const cells = 16
	cfgs := make([]cellsim.Config, cells)
	for c := range cfgs {
		cfgs[c] = benchmarks.MetroCellConfig(uint64(1+c), 120*time.Second)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		server := oneapi.NewServer(core.DefaultConfig(), nil)
		for c, cfg := range cfgs {
			if _, err := cellsim.NewInCell(cfg, server, c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMultiCellRun runs four metro_shared cells (120 simulated
// seconds each) through RunMultiConfig on one shared OneAPI server, one
// worker: assembly and run together, the window the ledger's
// metro_shared allocation figure covers. `make profile` writes its
// allocations site by site to multi-mem.prof.
func BenchmarkMultiCellRun(b *testing.B) {
	cfgs := make([]cellsim.Config, 4)
	for c := range cfgs {
		cfgs[c] = benchmarks.MetroCellConfig(uint64(1+c), 120*time.Second)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		server := oneapi.NewServer(core.DefaultConfig(), nil)
		if _, err := cellsim.RunMultiConfig(context.Background(), cellsim.MultiConfig{Workers: 1}, server, cfgs...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTickRecording runs the same canonical workload with
// the telemetry flight recorder enabled (ring buffer only, no
// streaming sink): every BAI solve, clamp, install, delivery, and
// stall is recorded. The gap against BenchmarkEngineTick documents the
// recording-enabled overhead, which must stay small (<15% simsec/sec)
// — the budget that makes always-on recording viable in tests and
// debugging runs. The disabled path costs nothing by construction
// (nil recorder, zero allocations; pinned in internal/obs tests).
func BenchmarkEngineTickRecording(b *testing.B) {
	rec := obs.New(obs.Options{RingSize: 4096})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := benchmarks.EngineTickConfig(uint64(i + 1))
		cfg.Obs = rec
		if _, err := cellsim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	if rec.Metrics().Events.Load() == 0 {
		b.Fatal("recording benchmark recorded no events")
	}
	b.ReportMetric(benchmarks.EngineSimSeconds/float64(b.Elapsed().Seconds()/float64(b.N)), "simsec/sec")
	b.ReportMetric(float64(rec.Metrics().Events.Load())/float64(b.N), "events/op")
}

// BenchmarkMixedCell measures the mixed-scheme path: two driver groups
// (FLARE + FESTIVE) sharing one cell, exercising per-group control
// ticks, the two-phase scheduler, and per-scheme result attribution.
func BenchmarkMixedCell(b *testing.B) {
	cfg := cellsim.DefaultConfig(cellsim.SchemeFLARE)
	cfg.Duration = 60 * time.Second
	cfg.NumVideo = 0
	cfg.VideoGroups = []cellsim.FlowGroup{
		{Scheme: cellsim.SchemeFLARE, Count: 4},
		{Scheme: cellsim.SchemeFESTIVE, Count: 4},
	}
	cfg.SegmentDuration = 2 * time.Second
	cfg.Channel = cellsim.ChannelSpec{Kind: cellsim.ChannelStatic, StaticITbs: 12}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := cellsim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.ClientsByScheme(cellsim.SchemeFLARE)) != 4 ||
			len(res.ClientsByScheme(cellsim.SchemeFESTIVE)) != 4 {
			b.Fatal("mixed cell lost a group")
		}
	}
}

// --- Ablation: Algorithm 1's streak gate on vs off (delta 4 vs 0),
// reported via the gate's direct cost.

func BenchmarkGateApply(b *testing.B) {
	streak := 0
	for i := 0; i < b.N; i++ {
		_, streak, _ = core.GateStep(4, streak, 2, 3)
	}
}
