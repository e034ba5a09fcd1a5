package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/obs"
	"github.com/flare-sim/flare/internal/oneapi"
	"github.com/flare-sim/flare/internal/sim"
	"github.com/flare-sim/flare/internal/transport"
)

// layerBudget is how long each isolated per-op measurement runs (the
// tests shorten it).
var layerBudget = 120 * time.Millisecond

// timeOp measures fn's cost per operation in nanoseconds: batches sized
// to about 5 ms run until the budget is spent and the median batch is
// reported, so one preempted batch does not move the figure. fn(n) must
// perform n operations.
func timeOp(budget time.Duration, fn func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		if d := time.Since(t0); d > 2*time.Millisecond || n >= 1<<24 {
			break
		}
		n *= 4
	}
	var batches []float64
	for start := time.Now(); time.Since(start) < budget || len(batches) < 3; {
		t0 := time.Now()
		fn(n)
		batches = append(batches, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(batches)
}

// allocsPerOp counts heap allocations per operation over n operations.
func allocsPerOp(n int, fn func(n int)) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	fn(n)
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / float64(n)
}

// newCell builds an eNodeB with `bearers` bearers on a static channel
// under the FLARE cell's scheduler; four in five are GBR video bearers.
func newCell(bearers int) (*lte.ENodeB, []*lte.Bearer) {
	enb := lte.NewENodeB(lte.NewUniformStaticChannel(bearers, 12), lte.TwoPhaseGBRScheduler{})
	bs := make([]*lte.Bearer, bearers)
	for i := range bs {
		b := &lte.Bearer{ID: i, UE: i, Class: lte.ClassVideo, GBRBits: 1e6}
		if i%5 == 4 {
			b.Class, b.GBRBits = lte.ClassData, 0
		}
		if _, err := enb.AddBearer(b); err != nil {
			panic(err) // UE index == bearer index < channel size by construction
		}
		bs[i] = b
	}
	return enb, bs
}

// ttiCost is the cost of one ENodeB.RunTTI with the first `backlogged`
// of `bearers` bearers kept backlogged.
func ttiCost(bearers, backlogged int) (ns, allocs float64) {
	enb, bs := newCell(bearers)
	tti := int64(0)
	run := func(n int) {
		for i := 0; i < n; i++ {
			for _, b := range bs[:backlogged] {
				if b.Backlog() < 10_000 {
					b.Enqueue(100_000)
				}
			}
			enb.RunTTI(tti)
			tti++
		}
	}
	ns = timeOp(layerBudget, run)
	return ns, allocsPerOp(2000, run)
}

// fastForwardCost is one FastForwardIdle jump over an idle cell.
func fastForwardCost(bearers int) float64 {
	enb, _ := newCell(bearers)
	tti := int64(0)
	return timeOp(layerBudget, func(n int) {
		for i := 0; i < n; i++ {
			enb.FastForwardIdle(tti, tti+50)
			tti += 50
		}
	})
}

// channelUpdateCost is MobilityChannel.Update per UE per TTI, averaged
// over the position steps in between which it is nearly free.
func channelUpdateCost(ues int) (float64, error) {
	ch, err := lte.NewMobilityChannel(lte.DefaultMobilityConfig(ues), sim.NewRNG(1))
	if err != nil {
		return 0, err
	}
	tti := int64(0)
	ns := timeOp(layerBudget, func(n int) {
		for i := 0; i < n; i++ {
			ch.Update(tti)
			tti++
		}
	})
	return ns / float64(ues), nil
}

// benchEnv is the scheduling environment the transport measurement
// gives its flow: a bare clock over a sim.EventQueue.
type benchEnv struct {
	now int64
	q   sim.EventQueue
}

func (e *benchEnv) NowTTI() int64 { return e.now }

func (e *benchEnv) Schedule(delay int64, fn func()) { e.q.Schedule(e.now+delay, fn) }

func (e *benchEnv) ScheduleArg(delay int64, fn func(int64), arg int64) {
	e.q.ScheduleArg(e.now+delay, fn, arg)
}

// transportTickCost is one Flow.Tick of a greedy flow in steady state.
// Events and the radio run between ticks, untimed, so the flow sees
// ACKs and an emptying queue as it would in a cell; only the Tick calls
// are inside the clock, and the clock's own cost is subtracted.
func transportTickCost() (float64, error) {
	enb, bs := newCell(1)
	env := &benchEnv{}
	flow, err := transport.NewFlow(env, bs[0], transport.DefaultConfig())
	if err != nil {
		return 0, err
	}
	flow.SetGreedy(true)
	const ticks = 200_000
	var inTick, inClock time.Duration
	for i := 0; i < ticks; i++ {
		env.q.RunDue(env.now)
		t0 := time.Now()
		flow.Tick()
		inTick += time.Since(t0)
		enb.RunTTI(env.now)
		env.now++
	}
	for i := 0; i < ticks; i++ {
		t0 := time.Now()
		inClock += time.Since(t0)
	}
	ns := float64((inTick - inClock).Nanoseconds()) / ticks
	if ns < 0 {
		ns = 0
	}
	return ns, nil
}

// eventQueueCost is one event through the queue: ScheduleArg plus its
// turn in RunDue, with a steady 20 events pending.
func eventQueueCost() float64 {
	var q sim.EventQueue
	tti := int64(0)
	noop := func(int64) {}
	return timeOp(layerBudget, func(n int) {
		for i := 0; i < n; i++ {
			q.ScheduleArg(tti+20, noop, 1)
			q.RunDue(tti)
			tti++
		}
	})
}

type noopRunner struct{}

func (noopRunner) RunRange(int, int) {}

// poolDispatchCost is one WorkerPool.Do barrier over nproc workers with
// nothing to do.
func poolDispatchCost(workers int) float64 {
	p := sim.NewWorkerPool(workers)
	defer p.Close()
	return timeOp(layerBudget, func(n int) {
		for i := 0; i < n; i++ {
			p.Do(workers, noopRunner{})
		}
	})
}

// solverProblem is a BAI instance at the workload's shape.
func solverProblem(shape layerShape) *core.Problem {
	rng := sim.NewRNG(1)
	p := &core.Problem{
		Flows:        make([]core.VideoFlow, shape.Sessions),
		NumDataFlows: 4,
		Alpha:        1,
		TotalRBs:     50_000,
		BAISeconds:   1,
	}
	for u := range p.Flows {
		p.Flows[u] = core.VideoFlow{
			ID: u, Ladder: shape.Ladder, Beta: 10, ThetaBps: 0.2e6,
			PrevLevel:  rng.Intn(shape.Ladder.Len()+1) - 1,
			RBsPerByte: 1 / (5 + rng.Float64()*30),
		}
	}
	return p
}

// roundStats is a deterministic statistics report for the shape's
// sessions, drawn like the control-plane workloads' reports.
func roundStats(shape layerShape, round int) map[int]core.FlowStats {
	flows := make(map[int]core.FlowStats, shape.Sessions)
	for f := 0; f < shape.Sessions; f++ {
		flows[f] = flowStats(shape.Ladder, shape.Sessions, mix(uint64(round), uint64(f)))
	}
	return flows
}

// layerCosts are the isolated per-op costs the sim attribution uses:
// each belongs to an operation the traced pass counts at a boundary, at
// a population the workload's configuration fixes. ttiFloorNs is one
// RunTTI over the declared bearers with none backlogged — what every
// TTI that is not skipped costs at the least.
type layerCosts struct {
	ttiFloorNs, ffNs, emitNs, roundSelfNs float64
}

// measureLayers times each module's exported API in isolation at the
// workload's population shape and fills the per-layer values of res.
func measureLayers(w workload, nproc int, res *runResult) (layerCosts, error) {
	var lc layerCosts
	v := res.Values
	shape := w.Shape

	v["lte.tti_ns.all_active"], v["lte.tti_allocs"] = ttiCost(20, 20)
	v["lte.tti_ns.sparse"], _ = ttiCost(380, 12)
	v["lte.ff_ns_per_jump"] = fastForwardCost(380)
	if shape.Bearers > 0 {
		lc.ttiFloorNs, _ = ttiCost(shape.Bearers, 0)
		lc.ffNs = fastForwardCost(shape.Bearers)
	}
	var err error
	if v["lte.channel_update_ns_per_ue"], err = channelUpdateCost(20); err != nil {
		return lc, err
	}
	if v["transport.tick_ns"], err = transportTickCost(); err != nil {
		return lc, err
	}
	v["sim.eventq_ns_per_event"] = eventQueueCost()
	v["sim.pool_dispatch_ns"] = poolDispatchCost(nproc)

	// core: the two solvers on one instance, then a whole BAI round at
	// three depths.
	prob := solverProblem(shape)
	exact, relaxed := core.NewExactSolver(), core.NewRelaxedSolver()
	var solveErr error
	v["core.solve_exact_ns"] = timeOp(layerBudget, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := exact.Solve(prob); err != nil {
				solveErr = err
			}
		}
	})
	v["core.solve_relaxed_ns"] = timeOp(layerBudget, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := relaxed.Solve(prob); err != nil {
				solveErr = err
			}
		}
	})
	if solveErr != nil {
		return lc, fmt.Errorf("solver: %w", solveErr)
	}

	rc, err := roundCosts(shape)
	if err != nil {
		return lc, err
	}
	v["core.runbai_ns"], v["core.runbai_allocs"] = rc.ctrlNs, rc.ctrlAllocs
	v["oneapi.round_self_ns"] = rc.serverSelfNs
	v["oneapi.handler_self_ns"] = rc.handlerSelfNs
	v["oneapi.allocs_per_round"] = rc.handlerAllocs
	v["oneapi.stats_req_bytes"], v["oneapi.stats_resp_bytes"] = rc.reqBytes, rc.respBytes
	lc.roundSelfNs = v["oneapi.round_self_ns"]
	srv := rc.server
	var runErr error

	flow := 0
	v["oneapi.poll_inproc_ns"] = timeOp(layerBudget, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := srv.AssignmentErr(0, flow%shape.Sessions); err != nil {
				runErr = err
			}
			flow++
		}
	})
	if v["oneapi.open_inproc_ns"], v["oneapi.close_inproc_ns"], err = openCloseCost(shape.Ladder); err != nil {
		return lc, err
	}
	cellOf := 0
	v["oneapi.handover_inproc_ns"] = timeOp(layerBudget, func(n int) {
		for i := 0; i < n; i++ {
			if err := srv.Handover(cellOf, 1-cellOf, 0); err != nil {
				runErr = err
			}
			cellOf = 1 - cellOf
		}
	})
	if runErr != nil {
		return lc, fmt.Errorf("session ops: %w", runErr)
	}
	v["oneapi.bytes_per_session"] = bytesPerSession(shape.Ladder)

	rec := obs.New(obs.Options{})
	v["obs.emit_ns"] = timeOp(layerBudget, func(n int) {
		for i := 0; i < n; i++ {
			rec.Emit(obs.Install(0, int32(i), int64(i), 2, 1e6))
		}
	})
	lc.emitNs = v["obs.emit_ns"]
	return lc, nil
}

// roundCost is one BAI round's cost entered at three depths: the
// controller's time, and what the server and the handler add to the
// depth below them.
type roundCost struct {
	ctrlNs, serverSelfNs, handlerSelfNs float64
	ctrlAllocs, handlerAllocs           float64
	reqBytes, respBytes                 float64
	server                              *oneapi.Server
}

// roundCosts times one BAI round at the shape's population through
// Controller.RunBAI, Server.RunBAIReport and the HTTP handler. The three
// start from the same state and are fed the same reports in the same
// order, so in every round they solve the same instance and each
// depth's self time is the median, over the rounds, of its time minus
// the time of the one below in the same round.
// The first rounds, while the controllers' radio costs still move from
// their prior towards the reports, are not timed.
func roundCosts(shape layerShape) (roundCost, error) {
	const warm, timed = 100, 60
	var rc roundCost
	ctrl := core.NewController(core.DefaultConfig())
	ctrl.SetRecorder(obs.New(obs.Options{}), 0)
	rc.server = newTwinServer()
	viaHandler := newHandlerBackend(newTwinServer(), shape.Ladder)
	for f := 0; f < shape.Sessions; f++ {
		if err := ctrl.Register(f, shape.Ladder, core.Preferences{}); err != nil {
			return rc, err
		}
		if _, err := rc.server.Open(0, oneapi.SessionRequest{FlowID: f, LadderBps: shape.Ladder}); err != nil {
			return rc, err
		}
		if _, err := viaHandler.Open(0, f); err != nil {
			return rc, err
		}
	}
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	var ctrlNs, serverSelfNs, handlerSelfNs []float64
	var ctrlMallocs, handlerMallocs uint64
	for r := 0; r < warm+timed; r++ {
		rep := oneapi.StatsReport{Flows: roundStats(shape, r)}
		body, err := json.Marshal(rep)
		if err != nil {
			return rc, err
		}
		req := httptest.NewRequest(http.MethodPost, "/oneapi/v4/cells/0/stats", strings.NewReader(string(body)))
		rr := httptest.NewRecorder()

		m0 := mallocs()
		t0 := time.Now()
		_, err1 := ctrl.RunBAI(rep.Flows, 0)
		t1 := time.Now()
		m1 := mallocs()
		_, err2 := rc.server.RunBAIReport(0, rep, nil)
		t2 := time.Now()
		m2 := mallocs()
		viaHandler.h.ServeHTTP(rr, req)
		t3 := time.Now()
		m3 := mallocs()
		if err1 != nil || err2 != nil || rr.Code != http.StatusOK {
			return rc, fmt.Errorf("BAI round %d: controller %v, server %v, handler status %d", r, err1, err2, rr.Code)
		}
		if r < warm {
			continue
		}
		ctrlNs = append(ctrlNs, float64(t1.Sub(t0).Nanoseconds()))
		serverSelfNs = append(serverSelfNs, float64((t2.Sub(t1) - t1.Sub(t0)).Nanoseconds()))
		handlerSelfNs = append(handlerSelfNs, float64((t3.Sub(t2) - t2.Sub(t1)).Nanoseconds()))
		ctrlMallocs += m1 - m0
		handlerMallocs += m3 - m2
		rc.reqBytes, rc.respBytes = float64(len(body)), float64(rr.Body.Len())
	}
	rc.ctrlNs, rc.serverSelfNs, rc.handlerSelfNs = median(ctrlNs), median(serverSelfNs), median(handlerSelfNs)
	rc.ctrlAllocs, rc.handlerAllocs = float64(ctrlMallocs)/timed, float64(handlerMallocs)/timed
	return rc, nil
}

// openCloseCost times Server.Open and Server.CloseSession separately
// over batches of fresh sessions.
func openCloseCost(ladder has.Ladder) (openNs, closeNs float64, err error) {
	srv := newTwinServer()
	const batch = 2000
	var opens, closes []float64
	for start := time.Now(); time.Since(start) < 2*layerBudget || len(opens) < 3; {
		t0 := time.Now()
		for f := 0; f < batch; f++ {
			if _, e := srv.Open(0, oneapi.SessionRequest{FlowID: f, LadderBps: ladder}); e != nil {
				err = e
			}
		}
		t1 := time.Now()
		for f := 0; f < batch; f++ {
			srv.CloseSession(0, f)
		}
		t2 := time.Now()
		opens = append(opens, float64(t1.Sub(t0).Nanoseconds())/batch)
		closes = append(closes, float64(t2.Sub(t1).Nanoseconds())/batch)
	}
	return median(opens), median(closes), err
}

// bytesPerSession is the live-heap growth per open session.
func bytesPerSession(ladder has.Ladder) float64 {
	const sessions = 10_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	srv := newTwinServer()
	for f := 0; f < sessions; f++ {
		_, _ = srv.Open(f%16, oneapi.SessionRequest{FlowID: f, LadderBps: ladder})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(srv)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return float64(after.HeapAlloc-before.HeapAlloc) / sessions
}
