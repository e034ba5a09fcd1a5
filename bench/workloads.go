package main

import (
	"math"
	"sort"
	"time"

	"github.com/flare-sim/flare/internal/benchmarks"
	"github.com/flare-sim/flare/internal/cellsim"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/sim"
)

// workload is one named set of inputs. Exactly one of Sim and Plane is
// set. Shape is the population the per-layer measurements are taken at.
type workload struct {
	Name  string
	Why   string
	Sim   *simSpec
	Plane *planeSpec
	Shape layerShape
}

// layerShape is the population a workload puts on each layer, as its
// configuration fixes it: how many bearers the cell declares, and how
// many sessions of which ladder one BAI round solves for.
type layerShape struct {
	Bearers  int
	Sessions int
	Ladder   has.Ladder
}

// simSpec describes a simulator workload: Cells cells of SimSeconds
// simulated seconds each, run together with Workers workers.
type simSpec struct {
	Cells      int
	SimSeconds int
	Workers    int
	Config     func(seed uint64) cellsim.Config
}

// planeSpec describes a control-plane workload against a real
// oneapiserver process.
type planeSpec struct {
	// Cells emulated eNodeBs, Sessions plugin sessions in each.
	Cells, Sessions int
	Ladder          has.Ladder
	// Conns is the number of driver connections (one worker goroutine
	// each); 0 means min(2, nproc).
	Conns int
	// Period makes the loop open: every cell is due one round (stats
	// POST, then one poll per session) each Period, on a fixed
	// schedule. Zero makes it closed: rounds run back to back.
	Period time.Duration
	// ChurnEvery, in a closed loop, closes and reopens one session and
	// hands one session over to a neighbour cell of the same worker
	// every that many rounds.
	ChurnEvery int
	// StormShare is the share of a closed loop's timed region spent in
	// open-all/close-all cycles after the rounds.
	StormShare float64
	// SettleRounds is how many rounds each cell runs before its
	// assignments are recorded for the twin check and the assigned-rate
	// figures. A new session's radio cost starts from the controller's
	// prior and follows the reports with a 0.05 EWMA; a 128-session cell
	// does not fit the RB budget at the prior, so until the costs have
	// settled every session sits on the ladder's floor.
	SettleRounds int
}

// subSeeds is how many distinct derived seeds a simulator run rotates
// through. The QoE figures pool the first pass over them, so they do
// not depend on how many repeats the host had time for.
const subSeeds = 4

// workloads returns the five workloads at the given scale (1 = the
// benchmark; the tests run a small fraction) for nproc processors.
func workloads(scale float64, nproc int) []workload {
	n := func(full, floor int) int {
		v := int(math.Round(float64(full) * scale))
		if v < floor {
			v = floor
		}
		return v
	}
	busySec := n(600, 20)
	churnSec, churnSessions := n(400, 40), n(200, 20)
	metroCells, metroSec := n(16, 2), n(120, 10)
	smallCells := n(280, 2*nproc)
	denseSessions := n(128, 8)

	return []workload{
		{
			Name: "cell_busy",
			Why:  "one saturated FLARE cell: lte scheduler, transport ticks and sim events do the work, the solver stays under 5 %",
			Sim: &simSpec{Cells: 1, SimSeconds: busySec, Workers: 1,
				Config: func(seed uint64) cellsim.Config { return busyCell(seed, busySec) }},
			Shape: layerShape{Bearers: 20, Sessions: 16, Ladder: has.SimLadder()},
		},
		{
			Name: "cell_churn",
			Why:  "same engine under session churn, ~12 live of 200 declared bearers: idle-bearer and open/close work dominate",
			Sim: &simSpec{Cells: 1, SimSeconds: churnSec, Workers: 1,
				Config: func(seed uint64) cellsim.Config { return churnCell(seed, churnSec, churnSessions) }},
			Shape: layerShape{Bearers: churnSessions, Sessions: 12, Ladder: has.SimLadder()},
		},
		{
			Name: "metro_shared",
			Why:  "16 fine-ladder cells on one shared sharded server with nproc workers: the exact solve and shard locks carry weight",
			Sim: &simSpec{Cells: metroCells, SimSeconds: metroSec, Workers: nproc,
				Config: func(seed uint64) cellsim.Config { return metroCell(seed, metroSec) }},
			Shape: layerShape{Bearers: 26, Sessions: 24, Ladder: has.FineLadder()},
		},
		{
			Name: "plane_small",
			Why:  "open loop of 280 small cells on a 1 s BAI cadence over loopback HTTP: per-message cost dominates the round trip",
			Plane: &planeSpec{Cells: smallCells, Sessions: 8, Ladder: has.SimLadder(),
				Period: time.Second},
			Shape: layerShape{Sessions: 8, Ladder: has.SimLadder()},
		},
		{
			Name: "plane_dense",
			Why:  "closed loop, one client, four 128-session fine-ladder cells with churn and handover: the exact solve dominates the round trip",
			// One connection: with two, the server solves two cells at once
			// on both processors, and on a 2-vCPU virtual machine the round
			// trip then follows where the host happens to put the vCPUs
			// (±25 % between runs of one commit) rather than the code.
			Plane: &planeSpec{Cells: 4, Sessions: denseSessions, Ladder: has.FineLadder(), Conns: 1,
				ChurnEvery: 10, StormShare: 0.25, SettleRounds: n(60, 2)},
			Shape: layerShape{Sessions: denseSessions, Ladder: has.FineLadder()},
		},
	}
}

// baseCell is what the churn and metro cells share with the engine
// benchmark's cell: FLARE on a static channel, 2 s segments, 1 s BAI.
func baseCell(seed uint64, simSeconds int) cellsim.Config {
	cfg := cellsim.DefaultConfig(cellsim.SchemeFLARE)
	cfg.Seed = seed
	cfg.Duration = time.Duration(simSeconds) * time.Second
	cfg.SegmentDuration = 2 * time.Second
	cfg.Flare.BAI = time.Second
	cfg.Channel = cellsim.ChannelSpec{Kind: cellsim.ChannelStatic, StaticITbs: 12}
	return cfg
}

// busyCell is the BENCH_engine.json population (16 video + 4 greedy
// data flows keeping the cell saturated). Its BAI is 10 s, not that
// file's 1 s: at 1 s the exact solve measures 25 % of the wall time,
// which would make this a second solver workload; at 10 s it is under
// 5 % and the workload isolates the engine.
func busyCell(seed uint64, simSeconds int) cellsim.Config {
	cfg := benchmarks.EngineTickConfig(seed)
	cfg.Duration = time.Duration(simSeconds) * time.Second
	cfg.Flare.BAI = 10 * time.Second
	return cfg
}

// churnCell declares `sessions` video sessions over the run: arrivals
// are a Poisson process conditioned on that count (uniform order
// statistics), durations Pareto (shape 2.5) with a mean that keeps ~12
// sessions live. The schedule is generated here, from the seed, rather
// than by cellsim's ChurnConfig: its arrival count varies with the seed
// by ±7 %, and the declared-bearer count is what this workload's cost
// scales with, so it has to be the same for every seed.
func churnCell(seed uint64, simSeconds, sessions int) cellsim.Config {
	cfg := baseCell(seed, simSeconds)
	const live, shape = 12.0, 2.5
	horizon := float64(simSeconds)
	meanDur := live * horizon / float64(sessions)
	rng := sim.NewRNG(mix(seed, 1<<32))
	arrivals := make([]float64, sessions)
	for i := range arrivals {
		arrivals[i] = rng.Float64() * horizon
	}
	sort.Float64s(arrivals)
	xm := meanDur * (shape - 1) / shape
	cfg.NumVideo = sessions
	cfg.VideoArrivals = make([]time.Duration, sessions)
	cfg.VideoDepartures = make([]time.Duration, sessions)
	for i, t := range arrivals {
		dur := xm * math.Pow(1-rng.Float64(), -1/shape)
		cfg.VideoArrivals[i] = time.Duration(t * float64(time.Second))
		if t+dur < horizon {
			cfg.VideoDepartures[i] = time.Duration((t + dur) * float64(time.Second))
		}
	}
	return cfg
}

// metroCell is one cell of the multi-cell run: 24 video + 2 data flows
// on the 12-level ladder, so each BAI's exact solve is a large share of
// the cell's work.
func metroCell(seed uint64, simSeconds int) cellsim.Config {
	cfg := baseCell(seed, simSeconds)
	cfg.NumVideo = 24
	cfg.NumData = 2
	cfg.Ladder = has.FineLadder()
	cfg.Channel.StaticITbs = 16
	return cfg
}
