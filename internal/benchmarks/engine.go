// Package benchmarks defines the canonical engine workloads, shared by
// the go-test benchmarks (bench_test.go), the whole-run allocation pins
// in this package's tests, and the perf ledger (bench/ builds cell_busy
// on EngineTickConfig and records CPUModel in its env block;
// MetroCellConfig mirrors its metro_shared cell).
package benchmarks

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/flare-sim/flare/internal/cellsim"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/sim"
)

// EngineSimSeconds is the simulated duration of one EngineTick
// iteration; simsec/sec = EngineSimSeconds / wall seconds per op.
const EngineSimSeconds = 60

// EngineTickConfig returns the engine hot-path workload: a 16-flow
// FLARE cell with 4 greedy data flows over one simulated minute on a
// static channel with a 1 s BAI. The greedy data flows keep the cell
// saturated, so the workload measures the busy path (scheduler, solver,
// transport, events) rather than the fast-forward idle path.
func EngineTickConfig(seed uint64) cellsim.Config {
	cfg := cellsim.DefaultConfig(cellsim.SchemeFLARE)
	cfg.Duration = EngineSimSeconds * time.Second
	cfg.NumVideo = 16
	cfg.NumData = 4
	cfg.SegmentDuration = 2 * time.Second
	cfg.Flare.BAI = 1 * time.Second
	cfg.Channel = cellsim.ChannelSpec{Kind: cellsim.ChannelStatic, StaticITbs: 12}
	cfg.Seed = seed
	return cfg
}

// MetroCellConfig returns one cell of the perf ledger's metro_shared
// workload: 24 video and 2 greedy data flows on the 12-rung ladder,
// FLARE on a static channel with a 1 s BAI, for d of simulated time.
func MetroCellConfig(seed uint64, d time.Duration) cellsim.Config {
	cfg := cellsim.DefaultConfig(cellsim.SchemeFLARE)
	cfg.Seed = seed
	cfg.Duration = d
	cfg.NumVideo, cfg.NumData = 24, 2
	cfg.Ladder = has.FineLadder()
	cfg.SegmentDuration = 2 * time.Second
	cfg.Flare.BAI = time.Second
	cfg.Channel = cellsim.ChannelSpec{Kind: cellsim.ChannelStatic, StaticITbs: 16}
	return cfg
}

// Churn workload shape: EngineChurnSessions sessions declared over
// EngineChurnSimSeconds simulated seconds, about EngineChurnLive of them
// live at any instant.
const (
	EngineChurnSimSeconds = 400
	EngineChurnSessions   = 200
	EngineChurnLive       = 12
)

// EngineChurnConfig returns the session-churn workload: the engine cell
// without data flows, its video sessions arriving as a Poisson process
// conditioned on the declared count (uniform order statistics) and
// staying for Pareto (shape 2.5) durations whose mean keeps about
// EngineChurnLive sessions live. Most declared bearers are idle at any
// TTI, so the workload measures what a declared-but-idle session costs
// per TTI and at assembly — the shape of bench/'s cell_churn.
func EngineChurnConfig(seed uint64) cellsim.Config {
	cfg := cellsim.DefaultConfig(cellsim.SchemeFLARE)
	cfg.Duration = EngineChurnSimSeconds * time.Second
	cfg.SegmentDuration = 2 * time.Second
	cfg.Flare.BAI = 1 * time.Second
	cfg.Channel = cellsim.ChannelSpec{Kind: cellsim.ChannelStatic, StaticITbs: 12}
	cfg.Seed = seed

	const shape = 2.5
	horizon := float64(EngineChurnSimSeconds)
	meanDur := EngineChurnLive * horizon / EngineChurnSessions
	rng := sim.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	arrivals := make([]float64, EngineChurnSessions)
	for i := range arrivals {
		arrivals[i] = rng.Float64() * horizon
	}
	sort.Float64s(arrivals)
	xm := meanDur * (shape - 1) / shape
	cfg.NumVideo = EngineChurnSessions
	cfg.VideoArrivals = make([]time.Duration, EngineChurnSessions)
	cfg.VideoDepartures = make([]time.Duration, EngineChurnSessions)
	for i, t := range arrivals {
		dur := xm * math.Pow(1-rng.Float64(), -1/shape)
		cfg.VideoArrivals[i] = time.Duration(t * float64(time.Second))
		if t+dur < horizon {
			cfg.VideoDepartures[i] = time.Duration((t + dur) * float64(time.Second))
		}
	}
	return cfg
}

// CPUModel best-effort identifies the host CPU so recorded benchmark
// numbers are interpretable across machines. Linux only (reads
// /proc/cpuinfo); other platforms fall back to the architecture name.
func CPUModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}
