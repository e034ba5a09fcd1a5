package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/metrics"
	"github.com/flare-sim/flare/internal/oneapi"
)

const (
	// verifyRounds is how many rounds per cell, after the workload's
	// settling rounds, have their assignments recorded: the run is
	// replayed up to there against an in-process twin afterwards and
	// must match, and the assigned-rate figures are taken over exactly
	// those rounds, so neither depends on how many rounds the host had
	// time for.
	verifyRounds = 8
	// lateLimit is when an answered operation counts as late in
	// failed_share. Late is not failed: on a shared virtual machine a
	// stall of 100–400 ms happens about once in 100,000 operations with
	// nothing wrong, and about one open-loop run in a hundred meets a
	// stall of a second that makes 300 rounds late at once. The answers
	// are still checked; the lateness is reported.
	lateLimit = 100 * time.Millisecond
	// setupCycles is how many times a timed control-plane run sets up
	// (server start, readiness, population, warm-up); setup_s is the
	// fastest cycle (see lowDecile).
	setupCycles = 5
)

// planeCell is one emulated eNodeB: its current sessions and report
// sequence.
type planeCell struct {
	id     int
	flows  []int
	seq    int64
	rounds int
}

// verifyRec fingerprints one stats exchange's outcome.
type verifyRec struct {
	cell int
	seq  int64
	sum  uint64
}

// twinSet is the in-process twins a traced run replays every wire
// operation against, one per depth.
type twinSet struct {
	handler *handlerBackend
	server  *inprocBackend
	ctrl    *ctrlBackend
}

func newTwinSet(spec *planeSpec) *twinSet {
	return &twinSet{
		handler: newHandlerBackend(newTwinServer(), spec.Ladder),
		server:  &inprocBackend{s: newTwinServer(), ladder: spec.Ladder},
		ctrl:    newCtrlBackend(spec.Ladder),
	}
}

// planeWorker owns one connection and a fixed share of the cells. All
// of its operations are a function of (seed, its cells, round index),
// so any backend given the same worker replays the same stream.
type planeWorker struct {
	spec  *planeSpec
	seed  uint64
	cells []*planeCell
	be    backend
	twins *twinSet
	tr    *tracer

	next  int   // next cell in the rotation
	round int64 // rounds completed
	// windowFrom, once set, starts the timed region: rates collects the
	// worker's round rate over consecutive windows of about a second,
	// each closed by the first round that completes after the second.
	windowFrom   time.Time
	windowRounds int
	rates        []float64

	rttMs, pollMs, lagMs, hoMs []float64
	attempted, failed, late    int64
	verify                     []verifyRec
	rateSum                    map[int]float64
	rateN                      map[int]int
	problems                   []string
}

// newPlaneWorker builds a worker for the given cells. Latency samples
// are kept raw, in slices preallocated to sampleCap (further samples
// are dropped, never reallocated mid-run); the verification twins pass
// 0 and keep none.
func newPlaneWorker(spec *planeSpec, seed uint64, cellIDs []int, be backend, sampleCap int) *planeWorker {
	w := &planeWorker{spec: spec, seed: seed, be: be,
		rttMs:   make([]float64, 0, sampleCap/8),
		pollMs:  make([]float64, 0, sampleCap),
		lagMs:   make([]float64, 0, sampleCap/8),
		hoMs:    make([]float64, 0, sampleCap/64),
		rateSum: make(map[int]float64), rateN: make(map[int]int),
	}
	for _, id := range cellIDs {
		c := &planeCell{id: id}
		for i := 0; i < spec.Sessions; i++ {
			c.flows = append(c.flows, id*spec.Sessions+i)
		}
		w.cells = append(w.cells, c)
	}
	return w
}

func (w *planeWorker) problem(format string, args ...any) {
	if len(w.problems) < 8 {
		w.problems = append(w.problems, fmt.Sprintf(format, args...))
	}
}

// op accounts one operation: attempted; failed when it errored; late
// when answered later than lateLimit.
func (w *planeWorker) op(name string, lat time.Duration, err error) {
	w.attempted++
	if err != nil {
		w.failed++
		w.problem("%s: %v", name, err)
	} else if lat > lateLimit {
		w.late++
	}
}

func keep(samples *[]float64, v float64) {
	if len(*samples) < cap(*samples) {
		*samples = append(*samples, v)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// populate opens every session of every cell.
func (w *planeWorker) populate() {
	for _, c := range w.cells {
		for _, f := range c.flows {
			d, err := w.be.Open(c.id, f)
			w.op("open", d, err)
			w.replaySession("open", c.id, f, d)
		}
	}
}

// warm runs one untimed round per cell, back to back. A cell's first
// BAI allocates its controller's solver tables (about 250 KB a cell),
// which is set-up work, not part of any later round's latency.
func (w *planeWorker) warm() {
	for range w.cells {
		w.step(time.Time{})
	}
	w.rttMs, w.pollMs = w.rttMs[:0], w.pollMs[:0]
}

// report builds a cell's statistics report for its next round: per-flow
// bytes and RBs drawn from the seed, the flow and the round.
func (w *planeWorker) report(c *planeCell) oneapi.StatsReport {
	c.seq++
	flows := make(map[int]core.FlowStats, len(c.flows))
	for _, f := range c.flows {
		flows[f] = flowStats(w.spec.Ladder, w.spec.Sessions, mix(w.seed, uint64(f)<<24^uint64(c.seq)))
	}
	return oneapi.StatsReport{Flows: flows, Seq: c.seq}
}

// flowStats draws one flow's radio accounting for a BAI from 64 random
// bits: about one second of a mid-ladder encoding, at a radio cost that
// lets a full cell of such flows just fit the RB budget — so the solver
// has a real choice to make instead of pinning every flow to the floor.
func flowStats(ladder []float64, sessions int, h uint64) core.FlowStats {
	midBytes := ladder[len(ladder)/2] / 8
	rbShare := 45_000 / float64(sessions)
	return core.FlowStats{
		Bytes: int64(midBytes * (0.5 + float64(h%1024)/1024)),
		RBs:   int64(rbShare * (0.5 + float64((h>>32)%1024)/1024)),
	}
}

// checkRung verifies a returned level is a rung of the session ladder.
func (w *planeWorker) checkRung(what string, flow, level int, rate float64) {
	l := w.spec.Ladder
	if level < 0 || level >= len(l) || l[level] != rate {
		w.problem("%s: flow %d got level %d rate %v, not a rung of its ladder", what, flow, level, rate)
		w.failed++
	}
}

func assignmentSum(as []core.Assignment) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, a := range as {
		put(uint64(a.FlowID))
		put(uint64(a.Level))
		put(math.Float64bits(a.RateBps))
	}
	return h.Sum64()
}

// step runs one BAI round for the next cell in the rotation: the stats
// exchange (timed from `due` when the loop is open), the periodic
// churn, then one poll per session.
func (w *planeWorker) step(due time.Time) {
	c := w.cells[w.next]
	w.next = (w.next + 1) % len(w.cells)
	rep := w.report(c)

	send := time.Now()
	resp, d, err := w.be.Report(c.id, rep)
	lat := d
	if !due.IsZero() {
		lag := send.Sub(due)
		lat += lag
		keep(&w.lagMs, ms(lag))
	}
	keep(&w.rttMs, ms(lat))
	w.op("stats", lat, err)
	if err == nil {
		if len(resp.Assignments) != len(c.flows) {
			w.problem("cell %d seq %d: %d assignments for %d sessions", c.id, c.seq, len(resp.Assignments), len(c.flows))
			w.failed++
		}
		for _, a := range resp.Assignments {
			w.checkRung("stats", a.FlowID, a.Level, a.RateBps)
		}
		if c.rounds >= w.spec.SettleRounds && c.rounds < w.spec.SettleRounds+verifyRounds {
			w.verify = append(w.verify, verifyRec{c.id, c.seq, assignmentSum(resp.Assignments)})
			for _, a := range resp.Assignments {
				w.rateSum[a.FlowID] += a.RateBps
				w.rateN[a.FlowID]++
			}
		}
		w.replayReport(c, rep, resp, send, d)
	}

	if n := int64(w.spec.ChurnEvery); n > 0 && (w.round+1)%n == 0 {
		w.churn(c)
	}
	for _, f := range c.flows {
		a, ok, d, err := w.be.Poll(c.id, f)
		keep(&w.pollMs, ms(d))
		w.op("poll", d, err)
		if err == nil && ok {
			w.checkRung("poll", a.FlowID, a.Level, a.RateBps)
		}
		w.replayPoll(c.id, f, d)
	}
	c.rounds++
	w.round++
	if !w.windowFrom.IsZero() {
		w.windowRounds++
		if now := time.Now(); now.Sub(w.windowFrom) >= time.Second {
			w.rates = append(w.rates, float64(w.windowRounds)/now.Sub(w.windowFrom).Seconds())
			w.windowFrom, w.windowRounds = now, 0
		}
	}
}

// churn closes and reopens one rotating session of the cell, then hands
// the cell's first session over to the worker's next cell.
func (w *planeWorker) churn(c *planeCell) {
	f := c.flows[int(w.round)%len(c.flows)]
	d, err := w.be.Close(c.id, f)
	w.op("close", d, err)
	w.replaySession("close", c.id, f, d)
	d, err = w.be.Open(c.id, f)
	w.op("open", d, err)
	w.replaySession("open", c.id, f, d)

	if len(w.cells) < 2 || len(c.flows) < 2 {
		return
	}
	to := w.cells[w.next] // the neighbour that runs its round next
	if to == c {
		return
	}
	moved := c.flows[0]
	d, err = w.be.Handover(c.id, to.id, moved)
	keep(&w.hoMs, ms(d))
	w.op("handover", d, err)
	if err != nil {
		return
	}
	c.flows = c.flows[1:]
	to.flows = append(to.flows, moved)
	if w.twins != nil {
		start := time.Now().Add(-d)
		dh, e1 := w.twins.handler.Handover(c.id, to.id, moved)
		ds, e2 := w.twins.server.Handover(c.id, to.id, moved)
		_, e3 := w.twins.ctrl.Handover(c.id, to.id, moved)
		w.twinErr("handover", e1, e2, e3)
		w.spans("handover", start, d, link{"oneapi.http", "handover", dh}, link{"oneapi", "Handover", ds})
	}
}

// link is one replayed depth of an operation: the layer entered, the
// call made there, and how long the twin spent in it.
type link struct {
	layer, name string
	d           time.Duration
}

// spans records a wire operation that started at `start` and took d,
// with the twins' replayed depths nested inside it, outermost first.
func (w *planeWorker) spans(op string, start time.Time, d time.Duration, chain ...link) {
	from := w.tr.since(start)
	to := from + d.Nanoseconds()
	id := w.tr.add(0, "wire", op, from, to, w.round, false)
	for _, l := range chain {
		id, from, to = w.tr.nest(id, from, to, l.layer, l.name, l.d, w.round)
	}
}

func (w *planeWorker) twinErr(op string, errs ...error) {
	for _, err := range errs {
		if err != nil {
			w.problem("twin %s: %v", op, err)
			w.failed++
		}
	}
}

// replayReport, in a traced run, replays the identical report against
// the twin at every depth and records the nested spans: wire ⊃ handler
// ⊃ RunBAIReport ⊃ Controller.RunBAI ⊃ Solve. The twins hold the same
// state as the server (they have seen the same operations), so each
// does the same work; a layer's self time is its span minus its child.
func (w *planeWorker) replayReport(c *planeCell, rep oneapi.StatsReport, wire oneapi.StatsResponse, send time.Time, d time.Duration) {
	if w.twins == nil {
		return
	}
	_, dh, e1 := w.twins.handler.Report(c.id, rep)
	sresp, ds, e2 := w.twins.server.Report(c.id, rep)
	_, dc, e3 := w.twins.ctrl.Report(c.id, rep)
	w.twinErr("stats", e1, e2, e3)
	if e2 == nil && assignmentSum(sresp.Assignments) != assignmentSum(wire.Assignments) {
		w.problem("cell %d seq %d: wire assignments differ from the in-process twin's", c.id, c.seq)
		w.failed++
	}
	w.spans("stats", send, d,
		link{"oneapi.http", "stats", dh}, link{"oneapi", "RunBAIReport", ds},
		link{"core", "Controller.RunBAI", dc}, link{"core.solve", "Solve", w.twins.ctrl.lastSolve})
}

func (w *planeWorker) replayPoll(cell, flow int, d time.Duration) {
	if w.twins == nil {
		return
	}
	start := time.Now().Add(-d)
	_, _, dh, e1 := w.twins.handler.Poll(cell, flow)
	_, _, ds, e2 := w.twins.server.Poll(cell, flow)
	w.twinErr("poll", e1, e2)
	w.spans("poll", start, d, link{"oneapi.http", "poll", dh}, link{"oneapi", "AssignmentErr", ds})
}

// replaySession mirrors an open or close onto the twins.
func (w *planeWorker) replaySession(op string, cell, flow int, d time.Duration) {
	if w.twins == nil {
		return
	}
	start := time.Now().Add(-d)
	call := func(b backend) (time.Duration, error) {
		if op == "open" {
			return b.Open(cell, flow)
		}
		return b.Close(cell, flow)
	}
	dh, e1 := call(w.twins.handler)
	ds, e2 := call(w.twins.server)
	_, e3 := call(w.twins.ctrl)
	w.twinErr(op, e1, e2, e3)
	w.spans(op, start, d, link{"oneapi.http", op, dh}, link{"oneapi", op, ds})
}

// runOpen paces the worker's rounds on the fixed schedule: one round
// every period/cells, each cell therefore once per period.
func (w *planeWorker) runOpen(start time.Time, period, length time.Duration) {
	gap := period / time.Duration(len(w.cells))
	for m := int64(0); ; m++ {
		due := start.Add(time.Duration(m) * gap)
		if due.Sub(start) >= length {
			return
		}
		sleepUntil(due)
		w.step(due)
	}
}

// sleepUntil blocks until the instant with the kernel's high-resolution
// timer. Go's own timers fire through the network poller at millisecond
// granularity, which would put up to 1 ms of generator lateness into
// every open-loop latency sample.
func sleepUntil(at time.Time) {
	if wait := time.Until(at) - spinWindow; wait > 0 {
		ts := syscall.NsecToTimespec(wait.Nanoseconds())
		// An interrupted sleep only lengthens the spin below.
		_ = syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(at) {
	}
}

// spinWindow is the tail of every wait that is spun rather than slept:
// it covers the usual overshoot of a nanosleep on a virtual machine and
// costs a worker at most a few percent of a core at 200 rounds a second.
const spinWindow = 300 * time.Microsecond

// runClosed runs rounds back to back until the deadline.
func (w *planeWorker) runClosed(deadline time.Time) {
	for time.Now().Before(deadline) {
		w.step(time.Time{})
	}
}

// storm closes and reopens every session of every cell until the
// deadline; it returns the opens made and the time spent opening.
func (w *planeWorker) storm(deadline time.Time) (opens int64, openTime time.Duration) {
	for time.Now().Before(deadline) {
		for _, c := range w.cells {
			for _, f := range c.flows {
				d, err := w.be.Close(c.id, f)
				w.op("close", d, err)
				w.replaySession("close", c.id, f, d)
			}
		}
		t0 := time.Now()
		for _, c := range w.cells {
			for _, f := range c.flows {
				d, err := w.be.Open(c.id, f)
				w.op("open", d, err)
				w.replaySession("open", c.id, f, d)
				opens++
			}
		}
		openTime += time.Since(t0)
	}
	return opens, openTime
}

// planeStats is the outcome of a control-plane workload's timed region.
type planeStats struct {
	rounds   int64
	rttP50Ms float64
}

// splitCells deals the cell IDs out to the workers in contiguous runs.
func splitCells(cells, workers int) [][]int {
	out := make([][]int, workers)
	for c := 0; c < cells; c++ {
		w := c * workers / cells
		out[w] = append(out[w], c)
	}
	return out
}

func forEachWorker(ws []*planeWorker, fn func(i int, w *planeWorker)) {
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *planeWorker) {
			defer wg.Done()
			fn(i, w)
		}(i, w)
	}
	wg.Wait()
}

// planeSetup is one set-up cycle: a fresh server process, readiness,
// the population opens and one warm-up round per cell. It returns the
// running server, the workers bound to it, and how long set-up and,
// within it, the opens took.
func planeSetup(bin string, spec *planeSpec, seed uint64, conns int, tr *tracer) (*serverProc, []*planeWorker, time.Duration, time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(bin)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	var workers []*planeWorker
	for _, ids := range splitCells(spec.Cells, conns) {
		w := newPlaneWorker(spec, seed, ids, newWireBackend(srv.url, spec.Ladder), 1<<19)
		if tr != nil {
			w.tr = tr
			w.twins = newTwinSet(spec)
		}
		workers = append(workers, w)
	}
	t1 := time.Now()
	forEachWorker(workers, func(_ int, w *planeWorker) { w.populate() })
	openWall := time.Since(t1)
	forEachWorker(workers, func(_ int, w *planeWorker) { w.warm() })
	return srv, workers, time.Since(t0), openWall, nil
}

// driverConns is how many connections (one worker goroutine each) drive
// a control-plane workload: the workload's own count, or min(2, nproc),
// and never more than it has cells. More connections than processors
// are refused: the generator would be measuring itself.
func driverConns(spec *planeSpec, nproc int) (int, error) {
	conns := spec.Conns
	if conns == 0 {
		conns = min(2, nproc)
	}
	if conns > nproc {
		return 0, fmt.Errorf("%d driver connections on %d processors: the generator would be measuring itself", conns, nproc)
	}
	return min(conns, spec.Cells), nil
}

// runPlane executes a control-plane workload for about `seconds`
// against a real oneapiserver process and fills the end-to-end values
// of res. With a tracer every wire operation is replayed against the
// in-process twins.
func runPlane(root string, w workload, seed uint64, seconds float64, cycles int, tr *tracer, res *runResult) (*planeStats, error) {
	spec := w.Plane
	conns, err := driverConns(spec, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	// The binary is built once, outside the set-up cycles: even as a
	// no-op the build check takes 0.2 s ± 20 %, which would be most of
	// setup_s and all of its noise.
	t0 := time.Now()
	bin, err := buildServer(root)
	if err != nil {
		return nil, err
	}
	res.Values["build_s"] = time.Since(t0).Seconds()
	var (
		srv       *serverProc
		workers   []*planeWorker
		setups    []float64
		openRates []float64
	)
	for cycle := 0; cycle < cycles; cycle++ {
		if srv != nil {
			for _, pw := range workers {
				pw.be.(*wireBackend).closeIdle()
			}
			srv.stop()
		}
		var setup, openWall time.Duration
		cycleTracer := tr
		if cycle < cycles-1 {
			cycleTracer = nil // only the cycle that is kept needs twins
		}
		srv, workers, setup, openWall, err = planeSetup(bin, spec, seed, conns, cycleTracer)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		openRates = append(openRates, float64(spec.Cells*spec.Sessions)/openWall.Seconds())
	}
	defer func() {
		for _, pw := range workers {
			pw.be.(*wireBackend).closeIdle()
		}
		srv.stop()
	}()
	res.Values["setup_s"] = lowDecile(setups)
	res.Samples["setup_s"] = len(setups)
	res.Values["session_opens_per_s"] = median(openRates)

	srvCPU0, err := procCPUSeconds(srv.pid())
	if err != nil {
		return nil, err
	}
	selfCPU0, err := procCPUSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}

	length := time.Duration(seconds * float64(time.Second))
	roundsLen := time.Duration(float64(length) * (1 - spec.StormShare))
	var warmRounds int64
	for _, pw := range workers {
		warmRounds += pw.round
	}
	start := time.Now()
	for _, pw := range workers {
		pw.windowFrom, pw.rates = start, make([]float64, 0, int(roundsLen/time.Second)+1)
	}
	forEachWorker(workers, func(_ int, pw *planeWorker) {
		if spec.Period > 0 {
			pw.runOpen(start, spec.Period, roundsLen)
		} else {
			pw.runClosed(start.Add(roundsLen))
		}
		pw.windowFrom = time.Time{} // the storm's rounds-free time is not a window
	})
	roundsWall := time.Since(start)

	if spec.StormShare > 0 {
		opens := make([]int64, len(workers))
		openTimes := make([]time.Duration, len(workers))
		forEachWorker(workers, func(i int, pw *planeWorker) {
			opens[i], openTimes[i] = pw.storm(start.Add(length))
		})
		var rate float64
		var total int64
		for i := range workers {
			if openTimes[i] > 0 {
				rate += float64(opens[i]) / openTimes[i].Seconds()
			}
			total += opens[i]
		}
		res.Values["session_opens_per_s"] = rate
		res.Samples["session_opens_per_s"] = int(total)
	}

	srvCPU1, err := procCPUSeconds(srv.pid())
	if err != nil {
		return nil, err
	}
	selfCPU1, err := procCPUSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}

	st := &planeStats{rounds: -warmRounds}
	var rtt, poll, lag, ho []float64
	retries := 0
	var late int64
	for _, pw := range workers {
		late += pw.late
		st.rounds += pw.round
		rtt = append(rtt, pw.rttMs...)
		poll = append(poll, pw.pollMs...)
		lag = append(lag, pw.lagMs...)
		ho = append(ho, pw.hoMs...)
		res.Attempted += pw.attempted
		res.Failed += pw.failed
		for _, p := range pw.problems {
			res.problem("%s: %s", w.Name, p)
		}
		retries += pw.be.(*wireBackend).totalRetries()
	}
	if len(rtt) == 0 {
		return nil, fmt.Errorf("%s: no round completed in %v", w.Name, roundsLen)
	}
	// Throughput is the sum over the workers of each one's median round
	// rate over windows of about a second, so a burst of interference
	// shorter than half the run does not move it. A run too short for
	// two windows falls back to the plain rate.
	roundsPerS := float64(st.rounds) / roundsWall.Seconds()
	if len(workers[0].rates) >= 2 {
		roundsPerS = 0
		for _, pw := range workers {
			roundsPerS += median(pw.rates)
		}
	}
	res.Values["bai_rounds_per_s"] = roundsPerS
	res.Samples["bai_rounds_per_s"] = int(st.rounds)
	res.Samples["bai_rtt_p50_ms"] = len(rtt)
	st.rttP50Ms = quantile(rtt, 0.50)
	res.Values["bai_rtt_p50_ms"] = st.rttP50Ms
	res.Values["bai_rtt_p99_ms"] = sortedQuantile(rtt, 0.99)
	res.Samples["poll_rtt_p99_ms"] = len(poll)
	res.Values["poll_rtt_p99_ms"] = quantile(poll, 0.99)
	res.Values["driver.gen_lag_p99_ms"] = quantile(lag, 0.99)
	res.Values["oneapi.handover_wire_ms"] = median(ho)
	res.Samples["oneapi.handover_wire_ms"] = len(ho)
	res.Values["oneapi.client_retries"] = float64(retries)
	res.Values["failed_share"] = float64(res.Failed+late) / float64(res.Attempted)

	srvCPU, selfCPU := srvCPU1-srvCPU0, selfCPU1-selfCPU0
	res.Values["oneapiserver.cpu_s_per_kround"] = srvCPU / float64(st.rounds) * 1000
	if srvCPU+selfCPU > 0 {
		res.Values["driver.cpu_share"] = selfCPU / (srvCPU + selfCPU)
	}
	rss, err := procPeakRSSMB(srv.pid())
	if err != nil {
		return nil, err
	}
	res.Values["peak_rss_mb"] = rss
	res.Values["oneapiserver.rss_peak_mb"] = rss

	planeQoE(workers, res)
	verifyAgainstTwin(w, spec, seed, workers, res)
	return st, nil
}

// planeQoE reports what the plane decided over the verified rounds: the
// mean assigned rate and Jain's index over the sessions' mean rates.
func planeQoE(workers []*planeWorker, res *runResult) {
	var means []float64
	var sum float64
	for _, pw := range workers {
		for f, s := range pw.rateSum {
			m := s / float64(pw.rateN[f])
			means = append(means, m)
			sum += m
		}
	}
	if len(means) == 0 {
		return
	}
	res.Values["qoe_mean_kbps"] = sum / float64(len(means)) / 1e3
	res.Values["qoe_jain"] = metrics.JainIndex(means)
	res.Samples["qoe_mean_kbps"] = len(means)
}

// verifyAgainstTwin replays each worker's operation stream, as far as
// it was recorded, against an in-process twin server entered at its
// HTTP handler, and requires the same assignments the wire server
// returned. The replay also yields the plane's sim_allocs_per_simsec:
// heap allocations per replayed BAI round — one simulated second of one
// cell's control loop — through handler, server, controller and solver,
// with the replay's own request building included (a constant of this
// program). The real server's allocations cannot be read from outside
// its process; the twin does the same work on the same inputs.
func verifyAgainstTwin(w workload, spec *planeSpec, seed uint64, workers []*planeWorker, res *runResult) {
	twins := make([]*planeWorker, len(workers))
	for i, pw := range workers {
		ids := make([]int, len(pw.cells))
		for j, c := range pw.cells {
			ids[j] = c.id
		}
		twins[i] = newPlaneWorker(spec, seed, ids, newHandlerBackend(newTwinServer(), spec.Ladder), 0)
	}
	forEachWorker(twins, func(_ int, twin *planeWorker) {
		twin.populate()
		twin.warm()
	})
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var rounds int64
	for _, twin := range twins {
		rounds -= twin.round
	}
	forEachWorker(twins, func(i int, twin *planeWorker) {
		for len(twin.verify) < len(workers[i].verify) && twin.round < workers[i].round {
			twin.step(time.Time{})
		}
	})
	runtime.ReadMemStats(&ms)
	for _, twin := range twins {
		rounds += twin.round
	}
	if rounds > 0 {
		res.Values["sim_allocs_per_simsec"] = float64(ms.Mallocs-mallocs) / float64(rounds)
		res.Samples["sim_allocs_per_simsec"] = int(rounds)
	}
	h := fnv.New64a()
	for i, pw := range workers {
		twin := twins[i]
		res.Attempted += int64(len(pw.verify))
		for n, rec := range pw.verify {
			if n >= len(twin.verify) || twin.verify[n] != rec {
				res.Failed++
				res.problem("%s worker %d round %d (cell %d seq %d): wire assignments differ from the in-process twin's",
					w.Name, i, n, rec.cell, rec.seq)
				break
			}
			fmt.Fprintf(h, "%d/%d/%x;", rec.cell, rec.seq, rec.sum)
		}
		for _, p := range twin.problems {
			res.problem("%s twin: %s", w.Name, p)
		}
	}
	res.Digests["assignments"] = fmt.Sprintf("%016x", h.Sum64())
}
