package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/flare-sim/flare/internal/cellsim"
	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/metrics"
	"github.com/flare-sim/flare/internal/obs"
	"github.com/flare-sim/flare/internal/oneapi"
)

// simRepeat is what one timed simulator run left behind for the trace's
// attribution pass.
type simRepeat struct {
	spanID           int64
	startNs, endNs   int64
	wall             time.Duration
	solveSec         float64
	rounds           int
	events           int64
	ffJumps, skipped int64
	flowSec          float64 // flow-seconds the repeat's cells schedule
}

// simStats is the outcome of a simulator workload's timed region.
type simStats struct {
	spec       *simSpec
	simsecPerS float64
	wallSec    float64 // summed over repeats
	simSeconds float64 // cell-seconds simulated, summed over repeats
	solveSec   float64
	repeats    []simRepeat
	events     int64
	ffJumps    int64
	skipped    int64
}

// fastForwardCounter is an obs sink that totals the kernel's
// quiescence jumps and the TTIs they skipped.
type fastForwardCounter struct {
	jumps, skipped int64
}

func (c *fastForwardCounter) Write(e *obs.Event) error {
	if e.Kind == obs.KindFastForward {
		c.jumps++
		c.skipped += e.To - e.TTI - 1
	}
	return nil
}

func (c *fastForwardCounter) Close() error { return nil }

// cellConfigs builds one repeat's cells: cell c of sub-seed k always
// gets the same derived seed.
func cellConfigs(spec *simSpec, sub uint64) []cellsim.Config {
	cfgs := make([]cellsim.Config, spec.Cells)
	for c := range cfgs {
		cfgs[c] = spec.Config(mix(sub, uint64(c)))
	}
	return cfgs
}

// flowSeconds is the flow-seconds a cell's configuration schedules: its
// data flows for the whole run, each video session from its arrival to
// its departure.
func flowSeconds(cfg cellsim.Config) float64 {
	total := cfg.Duration.Seconds() * float64(cfg.NumData)
	for i := 0; i < cfg.NumVideo; i++ {
		from, to := time.Duration(0), cfg.Duration
		if i < len(cfg.VideoArrivals) {
			from = cfg.VideoArrivals[i]
		}
		if i < len(cfg.VideoDepartures) && cfg.VideoDepartures[i] > 0 {
			to = cfg.VideoDepartures[i]
		}
		total += (to - from).Seconds()
	}
	return total
}

// simOutcome is one repeat: the per-cell results, the set-up time
// (cellsim.New for every cell), and the run's wall time and heap
// allocations.
type simOutcome struct {
	results []*cellsim.Result
	setup   time.Duration
	wall    time.Duration
	mallocs uint64
}

// simOnce builds and runs one repeat. A multi-cell repeat shares one
// server with `shards` shards (0 = the oneapi default).
func simOnce(spec *simSpec, cfgs []cellsim.Config, workers, shards int) (simOutcome, error) {
	var out simOutcome
	var ms runtime.MemStats
	timed := func(run func() error) error {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		t0 := time.Now()
		err := run()
		out.wall = time.Since(t0)
		runtime.ReadMemStats(&ms)
		out.mallocs = ms.Mallocs - before
		return err
	}
	if spec.Cells == 1 {
		t0 := time.Now()
		s, err := cellsim.New(cfgs[0])
		if err != nil {
			return out, err
		}
		out.setup = time.Since(t0)
		err = timed(func() error {
			r, err := s.Run()
			out.results = []*cellsim.Result{r}
			return err
		})
		return out, err
	}
	// RunMultiConfig assembles its cells itself, so the set-up sample
	// is taken by assembling the same cells once more on a server that
	// is then dropped.
	var err error
	if out.setup, err = assemble(cfgs); err != nil {
		return out, err
	}
	server := oneapi.NewServer(core.DefaultConfig(), nil)
	if shards > 0 {
		server = oneapi.NewServerSharded(core.DefaultConfig(), nil, shards)
	}
	err = timed(func() error {
		mr, err := cellsim.RunMultiConfig(context.Background(), cellsim.MultiConfig{Workers: workers}, server, cfgs...)
		if err == nil {
			out.results = mr.Cells
		}
		return err
	})
	return out, err
}

// assemble builds every cell of a repeat (cellsim.New, or NewInCell on
// a throw-away shared server) without running it, and returns how long
// that took.
func assemble(cfgs []cellsim.Config) (time.Duration, error) {
	t0 := time.Now()
	if len(cfgs) == 1 {
		cfg := cfgs[0]
		cfg.Obs = nil
		_, err := cellsim.New(cfg)
		return time.Since(t0), err
	}
	scratch := oneapi.NewServer(core.DefaultConfig(), nil)
	for c, cfg := range cfgs {
		cfg.Obs = nil
		if _, err := cellsim.NewInCell(cfg, scratch, c); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// setupSamples is how many extra times a simulator run assembles its
// cells before every repeat, so that setup_s rests on samples taken all
// through the run. Assembling allocates (a 200-session cell about a
// megabyte), so the heap is collected before every sample and before
// the repeat: left to the pacer, a burst of samples outruns the
// concurrent collector by an amount that depends on the host, and about
// one run in ten peaked 2–4 MB higher in peak_rss_mb. For the same
// reason the count is fixed, not timed.
const setupSamples = 8

// runSim executes a simulator workload for about `seconds` and fills
// the end-to-end values of res. With a tracer it also attaches an
// obs.Recorder per cell for the boundary counts.
func runSim(w workload, seed uint64, seconds float64, tr *tracer, res *runResult) (*simStats, error) {
	spec := w.Sim
	cellSec := float64(spec.Cells * spec.SimSeconds)
	st := &simStats{spec: spec}
	var (
		walls   []float64
		setups  []float64
		digests [subSeeds]string
		pooled  []cellsim.ClientResult
		solveMs = make([]float64, 0, 1<<16)
		// firstMallocs and firstSimsec cover the first pass over the
		// sub-seeds, like the QoE figures.
		firstMallocs uint64
		firstSimsec  float64
	)
	// Every sub-seed runs at least once and the first one twice, so the
	// pooled QoE figures and the determinism check never depend on the
	// host's speed.
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < subSeeds+1 || time.Now().Before(deadline); i++ {
		k := i % subSeeds
		cfgs := cellConfigs(spec, mix(seed, uint64(k)))
		for j := 0; j < setupSamples; j++ {
			runtime.GC()
			d, err := assemble(cfgs)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, d.Seconds())
		}
		runtime.GC()
		var counters []*fastForwardCounter
		var recorders []*obs.Recorder
		if tr != nil {
			for c := range cfgs {
				fc := &fastForwardCounter{}
				rec := obs.New(obs.Options{Sinks: []obs.Sink{fc}})
				cfgs[c].Obs = rec
				counters = append(counters, fc)
				recorders = append(recorders, rec)
			}
		}
		start := time.Now()
		out, err := simOnce(spec, cfgs, spec.Workers, 0)
		end := time.Now()
		res.Attempted++
		if err != nil {
			return nil, fmt.Errorf("repeat %d: %w", i, err)
		}
		results, setup, wall := out.results, out.setup, out.wall

		rep := simRepeat{wall: wall, startNs: tr.since(end.Add(-wall)), endNs: tr.since(end)}
		for _, cfg := range cfgs {
			rep.flowSec += flowSeconds(cfg)
		}
		for _, r := range results {
			for _, s := range r.SolveTimesSec {
				rep.solveSec += s
				if len(solveMs) < cap(solveMs) {
					solveMs = append(solveMs, s*1e3)
				}
			}
			rep.rounds += len(r.SolveTimesSec)
		}
		for c, fc := range counters {
			rep.ffJumps += fc.jumps
			rep.skipped += fc.skipped
			rep.events += recorders[c].Metrics().Events.Load()
		}
		if tr != nil {
			root := tr.add(0, "bench", "repeat", tr.since(start), tr.since(end), int64(i), false)
			tr.add(root, "cellsim", "New", tr.since(start), tr.since(start.Add(setup)), int64(i), false)
			rep.spanID = tr.add(root, "cellsim", "Run", rep.startNs, rep.endNs, int64(i), false)
		}
		st.repeats = append(st.repeats, rep)
		st.wallSec += wall.Seconds()
		st.simSeconds += cellSec
		st.solveSec += rep.solveSec
		st.events += rep.events
		st.ffJumps += rep.ffJumps
		st.skipped += rep.skipped

		walls = append(walls, wall.Seconds())
		setups = append(setups, setup.Seconds())
		d, err := resultDigest(results...)
		if err != nil {
			return nil, err
		}
		if digests[k] == "" {
			digests[k] = d
			for _, r := range results {
				pooled = append(pooled, r.Clients...)
			}
			firstMallocs += out.mallocs
			firstSimsec += cellSec
		} else if digests[k] != d {
			res.problem("%s sub-seed %d is not deterministic: digest %s then %s", w.Name, k, digests[k][:12], d[:12])
		}
	}

	// Throughput from the median repeat: the derived seeds' costs differ
	// by a few percent at most, the host's speed by far more, and the
	// median over all repeats shrugs off a burst of interference that
	// hits fewer than half of them.
	st.simsecPerS = cellSec / median(walls)
	res.Values["sim_simsec_per_s"] = st.simsecPerS
	res.Samples["sim_simsec_per_s"] = len(st.repeats)
	res.Values["setup_s"] = lowDecile(setups)
	res.Samples["setup_s"] = len(setups)
	res.Samples["bai_rtt_p50_ms"] = len(solveMs)
	res.Values["bai_rtt_p50_ms"] = quantile(solveMs, 0.50)
	res.Values["bai_rtt_p99_ms"] = sortedQuantile(solveMs, 0.99)
	res.Values["sim_allocs_per_simsec"] = float64(firstMallocs) / firstSimsec
	res.Values["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	workersUsed := spec.Workers
	if workersUsed > spec.Cells {
		workersUsed = spec.Cells
	}
	res.Values["core.solve_share"] = st.solveSec / (st.wallSec * float64(workersUsed))

	qoeFromClients(pooled, float64(spec.SimSeconds), res)
	for k, d := range digests {
		res.Digests[fmt.Sprintf("sub%d", k)] = d
	}

	// A multi-worker run must decide exactly what a one-worker run does.
	if spec.Workers > 1 && spec.Cells > 1 {
		out, err := simOnce(spec, cellConfigs(spec, mix(seed, 0)), 1, 0)
		res.Attempted++
		if err != nil {
			res.Failed++
			res.problem("%s workers=1: %v", w.Name, err)
		} else if d, err := resultDigest(out.results...); err != nil || d != digests[0] {
			res.problem("%s: workers=1 digest %.12s differs from workers=%d digest %.12s (%v)",
				w.Name, d, spec.Workers, digests[0], err)
		}
	}
	if rss, err := procPeakRSSMB(os.Getpid()); err == nil {
		res.Values["peak_rss_mb"] = rss
	} else {
		res.problem("peak rss: %v", err)
	}
	return st, nil
}

// qoeFromClients fills the paper's figures of merit from the pooled
// per-client outcomes.
func qoeFromClients(clients []cellsim.ClientResult, simSeconds float64, res *runResult) {
	if len(clients) == 0 {
		return
	}
	rates := make([]float64, len(clients))
	var sumRate, stall, switches float64
	for i, c := range clients {
		rates[i] = c.AvgRateBps
		sumRate += c.AvgRateBps
		stall += c.StallSeconds
		switches += float64(c.NumChanges)
	}
	n := float64(len(clients))
	res.Values["qoe_mean_kbps"] = sumRate / n / 1e3
	res.Values["qoe_jain"] = metrics.JainIndex(rates)
	res.Values["qoe_stall_s"] = stall / n
	res.Values["qoe_switches_per_min"] = switches / n / (simSeconds / 60)
	res.Samples["qoe_mean_kbps"] = len(clients)
}
