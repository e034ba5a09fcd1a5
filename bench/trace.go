package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// traceRun is the traced run of one workload, kept apart from the timed
// runs: a short untraced reference pass, the same pass again with the
// benchmark's tracer on (and, for simulator workloads, an obs.Recorder
// attached), then every layer's isolated per-op cost. The difference
// between the two passes is the tracing overhead.
func traceRun(root string, w workload, o options, res *runResult) error {
	pass := o.seconds / 4
	nproc := runtime.NumCPU()
	tr := newTracer(w.Name)
	traced := newRunResult(w.Name, o.seed, pass, true)

	var (
		simRef, simTr     *simStats
		planeRef, planeTr *planeStats
		err               error
	)
	if w.Sim != nil {
		if simRef, err = runSim(w, o.seed, pass, nil, res); err != nil {
			return err
		}
		if simTr, err = runSim(w, o.seed, pass, tr, traced); err != nil {
			return err
		}
	} else {
		if planeRef, err = runPlane(root, w, o.seed, pass, 1, nil, res); err != nil {
			return err
		}
		// Replaying every operation against three twins takes generator
		// time the untraced generator does not spend, so a traced open
		// loop keeps its schedule only at a quarter of the rate.
		slow := w
		if w.Plane.Period > 0 {
			spec := *w.Plane
			spec.Period *= 4
			slow.Plane = &spec
		}
		if planeTr, err = runPlane(root, slow, o.seed, pass, 1, tr, traced); err != nil {
			return err
		}
	}
	res.Attempted += traced.Attempted
	res.Failed += traced.Failed
	for _, p := range traced.Problems {
		res.problem("traced pass: %s", p)
	}

	lc, err := measureLayers(w, nproc, res)
	if err != nil {
		return err
	}

	if w.Sim != nil {
		res.Values["trace_overhead_pct"] = (simRef.simsecPerS/simTr.simsecPerS - 1) * 100
		res.Values["obs.recording_tax_pct"] = res.Values["trace_overhead_pct"]
		res.Values["cellsim.setup_ns"] = res.Values["setup_s"] * 1e9
		attributeSim(simTr, lc, tr, res)
		if err := simRatios(w, o.seed, nproc, res); err != nil {
			return err
		}
	} else {
		res.Values["trace_overhead_pct"] = (planeTr.rttP50Ms/planeRef.rttP50Ms - 1) * 100
	}

	spans := tr.snapshot()
	res.Layers = selfTimes(spans)
	var wireStatsNs, solveNs float64
	for _, lt := range res.Layers {
		switch {
		case lt.Layer == "wire" && lt.Name == "stats":
			res.Values["oneapi.wire_self_ns"] = float64(lt.SelfNs) / float64(lt.Spans)
			wireStatsNs = float64(lt.TotalNs)
		case lt.Layer == "core.solve" && w.Plane != nil:
			solveNs = float64(lt.TotalNs)
		}
	}
	if wireStatsNs > 0 {
		// On the wire the solver's share is taken of the stats round trip.
		res.Values["core.solve_share"] = solveNs / wireStatsNs
	}
	path := filepath.Join(outDir(root), w.Name+".trace.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("trace: %d spans written to %s\n", len(spans), path)
	return nil
}

// attributeSim explains as much of each traced repeat's wall time as
// the benchmark can measure from outside: the solver time the Result
// itself reports, and op counts taken at the boundaries (TTIs not
// skipped, BAI rounds, recorder events, fast-forward jumps) times each
// operation's isolated cost. For the radio only a floor is known — one
// RunTTI over the declared bearers with nothing backlogged; how many
// bearers and flows are busy in a TTI cannot be seen from here, so the
// backlog-dependent part of lte and all of transport, sim and has stay
// unattributed. The parts become child spans of the repeat's Run span;
// what they leave uncovered is cellsim.unattributed_share — the list of
// things only spans inside the program can explain.
func attributeSim(st *simStats, lc layerCosts, tr *tracer, res *runResult) {
	spec := st.spec
	workers := float64(min(spec.Workers, spec.Cells))
	ttisPerRepeat := int64(spec.Cells) * int64(spec.SimSeconds) * 1000
	var explained, cpuNs, flowTTIs float64
	for i, rep := range st.repeats {
		ttis := float64(ttisPerRepeat - rep.skipped)
		parts := []struct {
			layer, name string
			ns          float64
		}{
			{"lte", "RunTTI idle floor x TTIs", ttis * lc.ttiFloorNs},
			{"core.solve", "Solve (Result.SolveTimesSec)", rep.solveSec * 1e9},
			{"oneapi", "round self x rounds", float64(rep.rounds) * lc.roundSelfNs},
			{"obs", "Emit x events", float64(rep.events) * lc.emitNs},
			{"lte", "FastForwardIdle x jumps", float64(rep.ffJumps) * lc.ffNs},
		}
		at := rep.startNs
		for _, p := range parts {
			// Spans live on the wall clock; with several workers the
			// CPU time they stand for is spread over that many cores.
			d := max(int64(p.ns/workers), 0) // a paired difference can read below zero
			if at+d > rep.endNs {
				d = rep.endNs - at
			}
			tr.add(rep.spanID, p.layer, p.name, at, at+d, int64(i), true)
			at += d
			explained += max(p.ns, 0)
		}
		cpuNs += float64(rep.wall.Nanoseconds()) * workers
		flowTTIs += rep.flowSec * 1000
	}
	v := res.Values
	v["cellsim.unattributed_share"] = 1 - explained/cpuNs
	v["cellsim.ns_per_flow_tti"] = cpuNs / flowTTIs
	v["cellsim.ff_jumps_per_simsec"] = float64(st.ffJumps) / st.simSeconds
	v["cellsim.ff_skipped_share"] = float64(st.skipped) / (st.simSeconds * 1000)
	v["obs.events_per_simsec"] = float64(st.events) / st.simSeconds
}

// simRatios measures the engine's switches against their bases: the
// fast-forward kernel against the naive loop (one cell), and, for a
// multi-cell workload, nproc workers against one and the default shard
// count against a single shard. Each ratio is base time ÷ new time.
func simRatios(w workload, seed uint64, nproc int, res *runResult) error {
	spec := w.Sim
	one := *spec
	one.Cells, one.Workers = 1, 1
	wall := func(s *simSpec, workers, shards int, naive bool) (time.Duration, error) {
		cfgs := cellConfigs(s, mix(seed, 0))
		for i := range cfgs {
			cfgs[i].DisableFastForward = naive
		}
		out, err := simOnce(s, cfgs, workers, shards)
		return out.wall, err
	}
	ratio := func(base, changed time.Duration) float64 { return base.Seconds() / changed.Seconds() }

	naive, err := wall(&one, 1, 0, true)
	if err != nil {
		return err
	}
	fast, err := wall(&one, 1, 0, false)
	if err != nil {
		return err
	}
	res.Values["cellsim.ff_speedup"] = ratio(naive, fast)
	if spec.Cells == 1 {
		return nil
	}
	serial, err := wall(spec, 1, 0, false)
	if err != nil {
		return err
	}
	pooled, err := wall(spec, nproc, 0, false)
	if err != nil {
		return err
	}
	oneShard, err := wall(spec, nproc, 1, false)
	if err != nil {
		return err
	}
	res.Values["cellsim.multi_speedup"] = ratio(serial, pooled)
	res.Values["oneapi.shard_speedup"] = ratio(oneShard, pooled)
	return nil
}
