package cellsim

import (
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/flare-sim/flare/internal/cellsim/driver"
	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/metrics"
	"github.com/flare-sim/flare/internal/obs"
	"github.com/flare-sim/flare/internal/oneapi"
	"github.com/flare-sim/flare/internal/sim"
	"github.com/flare-sim/flare/internal/transport"
)

// env adapts the simulation loop to transport.Env (and its Waker
// extension, which feeds the kernel's active-flow tick list).
type env struct {
	clock  sim.Clock
	events sim.EventQueue

	// tickDirty marks the Sim's tick list stale (see Sim.tickList). It
	// lives here so that FlowActivated, the transport.Waker hook, sets
	// it directly.
	tickDirty bool
}

func (e *env) NowTTI() int64 { return e.clock.TTI() }

// ScheduleHandler implements transport.Env: the flows' and players'
// timers.
func (e *env) ScheduleHandler(delay int64, h sim.Handler) {
	if delay < 1 {
		delay = 1
	}
	e.events.ScheduleHandler(e.clock.TTI()+delay, h)
}

// ScheduleHandlerArg implements transport.Env: payload-carrying
// periodic work (the ACK clock, a request's latency).
func (e *env) ScheduleHandlerArg(delay int64, h sim.Handler, arg int64) {
	if delay < 1 {
		delay = 1
	}
	e.events.ScheduleHandlerArg(e.clock.TTI()+delay, h, arg)
}

// FlowActivated implements transport.Waker: a flow went from inactive
// to active, so the tick list no longer holds every active flow.
func (e *env) FlowActivated(*transport.Flow) { e.tickDirty = true }

// simGroup is one scheme's slice of the video population: the driver
// running it, the flows it owns, and its control-tick period.
type simGroup struct {
	scheme   Scheme
	count    int
	ctrl     driver.Controller
	flows    []*driver.Flow
	tickTTIs int64
	// ctrl's optional extensions (nil if absent), resolved at assembly (DESIGN §9).
	arrivals  driver.ArrivalAware
	flowStats driver.FlowTelemetry
	control   driver.ControlTelemetry
}

// Sim is one assembled cell simulation. Build with New, execute with Run.
//
// The engine is scheme-agnostic: it owns the radio (channel, eNodeB,
// scheduler), the transport flows, and the HAS players, and delegates
// every scheme-specific decision — adapters, control-plane wiring,
// periodic ticks, departures — to the driver layer
// (internal/cellsim/driver). One cell can host several scheme groups at
// once (Config.VideoGroups); each group gets its own driver instance.
type Sim struct {
	cfg     Config
	env     env
	rng     *sim.RNG
	channel lte.Channel
	enb     *lte.ENodeB
	rec     *obs.Recorder // cfg.Obs; nil = telemetry disabled
	cellID  int

	groups []*simGroup

	// mpd is the cell's one media description: every player streams the
	// same presentation, so they share it — and the ladder derived from
	// it — read-only. nil in a cell without players.
	mpd *has.MPD
	// Per-session state lives in per-cell slabs, indexed by flow ID,
	// instead of one allocation per object per session. The slabs are
	// never reallocated: the objects hold pointers to one another and to
	// themselves (their event and delivery handlers; a video flow's
	// player lives inside its videoSlab entry). Flow IDs are canonical:
	// video (videoSlab is every group's flows in that order), then data,
	// so the slabs are also the cell's lists of each kind (see
	// dataFlows).
	bearerSlab []lte.Bearer
	flowSlab   []transport.Flow
	videoSlab  []driver.Flow

	// tickList is the transport flows with bytes to send, in flow-ID
	// order — the only flows whose Tick can act. env.tickDirty marks the
	// list stale: set when a flow activates (the env's Waker hook) or
	// when a listed flow is observed inactive, and serviced by rebuilding
	// from flowSlab, which keeps the tick order canonical. Tick order
	// across flows is immaterial for byte-exactness (a flow's Tick
	// touches only its own state and bearer, and draws no RNG), but a
	// canonical order keeps the engine easy to reason about.
	tickList []*transport.Flow

	// series state
	rateSeries    []*metrics.TimeSeries
	bufSeries     []*metrics.TimeSeries
	dataSeries    []*metrics.TimeSeries
	lastDataBytes []int64

	// statsScratch is the report map reused across CollectStats calls.
	// Both consumers (the OneAPI server's RunBAI and the AVIS epoch) read
	// it synchronously and retain nothing, so clearing and refilling one
	// map per BAI is safe and keeps the control path allocation-free.
	statsScratch map[int]core.FlowStats
}

// Engine interface conformance: Sim is the view drivers operate on.
var _ driver.Engine = (*Sim)(nil)

// New assembles a simulation from the configuration.
func New(cfg Config) (*Sim, error) {
	return NewInCell(cfg, nil, 0)
}

// NewInCell assembles a simulation whose network control plane (if its
// schemes have one) lives on a shared OneAPI server under the given cell
// ID — the paper's "a single OneAPI server can manage multiple BSs,
// though the bitrates are calculated independently for each network
// cell". A nil server gives FLARE cells their own private one; schemes
// without a OneAPI control plane ignore it.
func NewInCell(cfg Config, server *oneapi.Server, cellID int) (*Sim, error) {
	if err := cfg.expandChurn(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	groups := cfg.videoGroups()
	cfg.NumVideo = totalCount(groups)

	s := &Sim{cfg: cfg, rng: sim.NewRNG(cfg.Seed), rec: cfg.Obs, cellID: cellID}
	if s.rec.Enabled() { // the method value is a heap object
		s.rec.SetNowTTI(s.env.NowTTI)
	}
	s.env.tickDirty = true

	numUEs := cfg.NumVideo + cfg.NumData
	ch, err := s.buildChannel(numUEs)
	if err != nil {
		return nil, err
	}
	s.channel = ch

	s.buildDrivers(groups, server, cellID)
	s.enb = lte.NewENodeB(ch, s.buildScheduler())

	s.bearerSlab = make([]lte.Bearer, numUEs)
	s.flowSlab = make([]transport.Flow, numUEs)
	s.tickList = make([]*transport.Flow, 0, numUEs)
	if cfg.NumVideo > 0 {
		s.videoSlab = make([]driver.Flow, cfg.NumVideo)
		segs := int(cfg.Duration/cfg.SegmentDuration) + 16
		if s.mpd, err = has.NewMPD(cfg.Ladder, cfg.SegmentDuration, segs); err != nil {
			return nil, err
		}
		s.mpd.SizeJitter = cfg.VBRJitter
	}

	if err := s.buildVideo(); err != nil {
		return nil, err
	}
	if err := s.buildData(); err != nil {
		return nil, err
	}
	for _, g := range s.groups {
		if err := g.ctrl.Init(s, g.flows); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// buildDrivers builds the scheme table's driver for each video group, with
// the engine-computed context each needs: its share of the configuration
// plus the competing background population (data + the other groups'
// video flows).
func (s *Sim) buildDrivers(groups []FlowGroup, server *oneapi.Server, cellID int) {
	totalVideo := totalCount(groups)
	offset := 0
	for _, fg := range groups {
		background := make([]int, 0, s.cfg.NumData+totalVideo-fg.Count)
		for i := 0; i < s.cfg.NumData; i++ {
			background = append(background, totalVideo+i)
		}
		for id := 0; id < totalVideo; id++ {
			if id < offset || id >= offset+fg.Count {
				background = append(background, id)
			}
		}
		dcfg := driver.Config{
			Count:               fg.Count,
			Ladder:              s.cfg.Ladder,
			SegmentSeconds:      s.cfg.SegmentDuration.Seconds(),
			RNG:                 s.rng,
			Flare:               s.cfg.Flare,
			Fallback:            s.cfg.Fallback,
			ControlFaults:       s.cfg.ControlFaults,
			LowBufferCapSeconds: s.cfg.LowBufferCapSeconds,
			OneAPI:              server,
			CellID:              cellID,
			BackgroundFlowIDs:   background,
			Obs:                 s.cfg.Obs,
		}
		ctrl := schemes[fg.Scheme].build(dcfg)
		g := &simGroup{scheme: fg.Scheme, count: fg.Count, ctrl: ctrl}
		g.arrivals, _ = ctrl.(driver.ArrivalAware)
		g.flowStats, _ = ctrl.(driver.FlowTelemetry)
		g.control, _ = ctrl.(driver.ControlTelemetry)
		s.groups = append(s.groups, g)
		offset += fg.Count
	}
}

func (s *Sim) buildChannel(numUEs int) (lte.Channel, error) {
	spec := s.cfg.Channel
	switch spec.Kind {
	case ChannelStatic:
		return lte.NewUniformStaticChannel(numUEs, spec.StaticITbs), nil
	case ChannelCyclic:
		period := sim.DurationToTTIs(spec.CyclicPeriod)
		offsets := make([]int64, numUEs)
		for i := range offsets {
			offsets[i] = period * int64(i) / int64(numUEs)
		}
		return lte.NewCyclicChannel(spec.CyclicMin, spec.CyclicMax, period, offsets)
	case ChannelMobility:
		mcfg := spec.Mobility
		mcfg.NumUEs = numUEs
		if mcfg == (lte.MobilityConfig{NumUEs: numUEs}) {
			mcfg = lte.DefaultMobilityConfig(numUEs)
		}
		return lte.NewMobilityChannel(mcfg, s.rng)
	case ChannelTrace:
		return lte.NewTraceChannel(spec.Traces, sim.DurationToTTIs(spec.TraceStep))
	default:
		return nil, fmt.Errorf("cellsim: unknown channel kind %d", int(spec.Kind))
	}
}

// buildScheduler resolves the cell's radio scheduler from the resident
// drivers' declared policies: the strongest requirement wins
// (GBR > Sliced > BestEffort). There is no scheme dispatch here — a new
// scheme influences scheduling purely through its driver's policy.
func (s *Sim) buildScheduler() lte.Scheduler {
	policy := driver.PolicyBestEffort
	var sizer driver.SliceSizer
	managed := 0 // video flows of managed groups; the rest is background
	for _, g := range s.groups {
		p := g.ctrl.SchedulerPolicy()
		if p > policy {
			policy = p
		}
		if g.managed() {
			managed += g.count
		}
		if p == driver.PolicySliced && sizer == nil {
			if sz, ok := g.ctrl.(driver.SliceSizer); ok {
				sizer = sz
			}
		}
	}
	switch policy {
	case driver.PolicyGBR:
		return lte.TwoPhaseGBRScheduler{}
	case driver.PolicySliced:
		frac := 0.0
		if sizer != nil {
			frac = sizer.VideoFraction(managed, s.cfg.NumVideo-managed+s.cfg.NumData)
		}
		if frac > 1 {
			frac = 1
		}
		return lte.SlicedScheduler{VideoFraction: frac}
	default:
		return lte.PFScheduler{}
	}
}

// managed reports whether a network controller (FLARE's GBR installs,
// AVIS's slice) manages the group's flows. An unmanaged group is the
// paper's Section V conventional player, "serviced like other data
// traffic without any bitrate guarantees": its flows ride data bearers
// and count as background wherever the cell is partitioned.
func (g *simGroup) managed() bool {
	return g.ctrl.SchedulerPolicy() != driver.PolicyBestEffort
}

func (s *Sim) buildVideo() error {
	// One backing array holds every group's flow list, each capped at
	// its own window.
	lists := make([]*driver.Flow, s.cfg.NumVideo)
	id := 0
	for _, g := range s.groups {
		class := lte.ClassData
		if g.managed() {
			class = lte.ClassVideo
		}
		g.flows = lists[id : id : id+g.count]
		for i := 0; i < g.count; i++ {
			b, flow, err := s.newFlow(id, class)
			if err != nil {
				return err
			}
			adapter, err := g.ctrl.NewAdapter(i)
			if err != nil {
				return err
			}
			// The entry is set first, in place (the slab is zeroed
			// already), and its player initialised there: Init points
			// the transport's delivery hook at the player, so the
			// player must not move afterwards.
			f := &s.videoSlab[id]
			f.ID, f.Index, f.UE = id, i, id
			f.Bearer, f.Adapter, f.Transport = b, adapter, flow
			if err := f.Player.Init(&s.env, flow, s.mpd, adapter, s.cfg.Player); err != nil {
				return err
			}
			if s.rec.Enabled() {
				flowID := int32(f.ID)
				f.Player.OnStall = func(started bool) {
					if started {
						s.rec.Emit(obs.StallStart(int32(s.cellID), flowID))
					} else {
						s.rec.Emit(obs.StallEnd(int32(s.cellID), flowID))
					}
				}
			}
			g.flows = append(g.flows, f)
			id++
		}
	}
	return nil
}

// newFlow builds flow `id` of the cell — its bearer, registered with
// the eNodeB, and the transport flow over it, both carved from the
// cell's slabs. Must be called in canonical flow order, so that the
// eNodeB's bearers are in flow-ID order too.
func (s *Sim) newFlow(id int, class lte.BearerClass) (*lte.Bearer, *transport.Flow, error) {
	b := &s.bearerSlab[id] // zeroed already: set in place
	b.ID, b.UE, b.Class = id, id, class
	if _, err := s.enb.AddBearer(b); err != nil {
		return nil, nil, err
	}
	f := &s.flowSlab[id]
	if err := f.Init(&s.env, b, s.cfg.Transport); err != nil {
		return nil, nil, err
	}
	return b, f, nil
}

func (s *Sim) buildData() error {
	for i := 0; i < s.cfg.NumData; i++ {
		if _, _, err := s.newFlow(s.cfg.NumVideo+i, lte.ClassData); err != nil {
			return err
		}
	}
	return nil
}

// dataFlows returns the cell's data flows, in flow-ID order.
func (s *Sim) dataFlows() []transport.Flow {
	return s.flowSlab[s.cfg.NumVideo : s.cfg.NumVideo+s.cfg.NumData]
}

// CollectStats implements driver.Engine: drain the given flows'
// per-bearer accounting windows and attach the current-MCS hint — the
// Statistics Reporter's report for one interval.
func (s *Sim) CollectStats(flows []*driver.Flow) map[int]core.FlowStats {
	if s.statsScratch == nil {
		s.statsScratch = make(map[int]core.FlowStats, len(flows))
	}
	stats := s.statsScratch
	clear(stats)
	for _, f := range flows {
		w := f.Bearer.CollectWindow()
		stats[f.ID] = core.FlowStats{
			Bytes:          w.Bytes,
			RBs:            w.RBs,
			BytesPerRBHint: lte.BitsPerRB(s.channel.ITbs(f.UE)) / 8,
		}
	}
	return stats
}

// SetGBR implements driver.Engine.
func (s *Sim) SetGBR(flowID int, bps float64) error { return s.enb.SetGBR(flowID, bps) }

// SetMBR implements driver.Engine.
func (s *Sim) SetMBR(flowID int, bps float64) error { return s.enb.SetMBR(flowID, bps) }

// RNG implements driver.Engine.
func (s *Sim) RNG() *sim.RNG { return s.rng }

// sampleEvery is the period of the series CollectSeries records.
const sampleEvery = time.Second

func (s *Sim) sample(tSec float64) {
	for i := range s.videoSlab {
		f := &s.videoSlab[i]
		rate := 0.0
		if q := f.Player.State().LastQuality; q >= 0 {
			rate = s.cfg.Ladder.Rate(q)
		}
		s.rateSeries[i].Add(tSec, rate)
		s.bufSeries[i].Add(tSec, f.Player.BufferSeconds())
	}
	data := s.dataFlows()
	for i := range data {
		delivered := data[i].DeliveredTotal()
		delta := delivered - s.lastDataBytes[i]
		s.lastDataBytes[i] = delivered
		s.dataSeries[i].Add(tSec, float64(delta)*8/sampleEvery.Seconds())
	}
}

// Run executes the simulation and returns the collected results.
func (s *Sim) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the TTI loop checks
// ctx roughly once per simulated second and returns ctx.Err() when it
// fires. Cancellation does not perturb determinism — completed runs are
// byte-identical with or without a context.
func (s *Sim) RunContext(ctx context.Context) (*Result, error) {
	durTTIs := sim.DurationToTTIs(s.cfg.Duration)

	s.scheduleStarts()

	for _, g := range s.groups {
		if iv := g.ctrl.Interval(); iv > 0 {
			g.tickTTIs = sim.DurationToTTIs(iv)
		}
	}
	sampleTTIs := sim.DurationToTTIs(sampleEvery)
	if s.cfg.CollectSeries {
		s.rateSeries = make([]*metrics.TimeSeries, s.cfg.NumVideo)
		s.bufSeries = make([]*metrics.TimeSeries, s.cfg.NumVideo)
		for i := range s.rateSeries {
			s.rateSeries[i] = &metrics.TimeSeries{}
			s.bufSeries[i] = &metrics.TimeSeries{}
		}
		s.dataSeries = make([]*metrics.TimeSeries, s.cfg.NumData)
		for i := range s.dataSeries {
			s.dataSeries[i] = &metrics.TimeSeries{}
		}
		s.lastDataBytes = make([]int64, s.cfg.NumData)
	}

	var err error
	if s.cfg.DisableFastForward || !s.enb.CanFastForward() {
		err = s.runNaive(ctx, durTTIs, sampleTTIs)
	} else {
		err = s.runFast(ctx, durTTIs, sampleTTIs)
	}
	if err != nil {
		// Crash context: the flight recorder holds the last decisions
		// leading up to the failure.
		s.rec.DumpOnError(err)
		return nil, err
	}
	return s.buildResult(), nil
}

// scheduleStarts queues the run's opening events. Player and data-flow
// starts are staggered over the first two seconds so clients don't move
// in lockstep; explicit arrival schedules win.
func (s *Sim) scheduleStarts() {
	// Two handlers on the Sim itself, the flow ID as the event's
	// argument: a declared flow costs the run no allocation until it
	// arrives.
	arrive, depart := (*arrival)(s), (*departure)(s)
	for id := 0; id < s.cfg.NumVideo; id++ {
		startTTI := int64(s.rng.Intn(2000))
		if len(s.cfg.VideoArrivals) > 0 {
			startTTI = sim.DurationToTTIs(s.cfg.VideoArrivals[id])
		}
		s.env.events.ScheduleHandlerArg(startTTI, arrive, int64(id))
		if len(s.cfg.VideoDepartures) > 0 && s.cfg.VideoDepartures[id] > 0 {
			s.env.events.ScheduleHandlerArg(sim.DurationToTTIs(s.cfg.VideoDepartures[id]), depart, int64(id))
		}
	}
	for i := 0; i < s.cfg.NumData; i++ {
		s.env.events.ScheduleHandlerArg(int64(s.rng.Intn(2000)), arrive, int64(s.cfg.NumVideo+i))
	}
}

// The arrival and departure events' handlers are views of the Sim:
// pointers in an interface, which allocate nothing.
type (
	arrival   Sim
	departure Sim
)

func (h *arrival) Fire(id int64)   { (*Sim)(h).flowArrives(id) }
func (h *departure) Fire(id int64) { (*Sim)(h).flowDeparts(id) }

// groupOf returns the scheme group that owns video flow id (groups own
// consecutive ID ranges, in order).
func (s *Sim) groupOf(id int) *simGroup {
	for _, g := range s.groups {
		if id < len(g.flows) {
			return g
		}
		id -= len(g.flows)
	}
	return nil
}

// flowArrives is the arrival event of flow id. A video session
// announces itself to its group's controller and starts playing; a data
// flow turns greedy.
func (s *Sim) flowArrives(id int64) {
	if int(id) >= s.cfg.NumVideo {
		s.flowSlab[id].SetGreedy(true)
		return
	}
	f := &s.videoSlab[id]
	s.rec.Emit(obs.FlowStart(int32(s.cellID), int32(f.ID)))
	if aa := s.groupOf(f.ID).arrivals; aa != nil {
		aa.OnFlowArrival(f)
	}
	f.Player.Start()
}

// flowDeparts is the departure event of video flow id.
func (s *Sim) flowDeparts(id int64) {
	f := &s.videoSlab[id]
	f.Player.Stop()
	s.groupOf(f.ID).ctrl.OnFlowDeparture(f)
	s.rec.Emit(obs.FlowDepart(int32(s.cellID), int32(f.ID)))
}

// runHooks runs the post-radio per-TTI work shared by both loops: group
// control ticks (BAIs) and series sampling.
func (s *Sim) runHooks(tti, sampleTTIs int64) error {
	for _, g := range s.groups {
		if g.tickTTIs > 0 && tti > 0 && tti%g.tickTTIs == 0 {
			if err := g.ctrl.OnBAI(time.Duration(tti) * sim.TTI); err != nil {
				return err
			}
		}
	}
	if s.cfg.CollectSeries && tti > 0 && tti%sampleTTIs == 0 {
		s.sample(float64(tti) / lte.TTIsPerSecond)
	}
	return nil
}

// runNaive is the reference TTI-by-TTI loop: every TTI runs due events,
// ticks every flow, runs the radio, and fires the control hooks. It is
// the semantic baseline the fast-forward kernel must match byte for
// byte, kept selectable via Config.DisableFastForward (and used
// automatically for channel models without catch-up support).
func (s *Sim) runNaive(ctx context.Context, durTTIs, sampleTTIs int64) error {
	for tti := int64(0); tti < durTTIs; tti++ {
		// Poll at every 1024th TTI except the first: a run always makes
		// its first ~1 s of simulated progress before it can observe
		// cancellation, so which cells of a multi-cell run reach an
		// early failure of their own (vs. a sibling's cancel) is a
		// deterministic fact, not a goroutine race. See runMany.
		if tti&0x3ff == 0 && tti != 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		s.env.events.RunDue(tti)
		for i := range s.flowSlab {
			s.flowSlab[i].Tick()
		}
		s.enb.RunTTI(tti)
		if err := s.runHooks(tti, sampleTTIs); err != nil {
			return err
		}
		s.env.clock.Advance()
	}
	return nil
}

// runFast is the quiescence-aware kernel. Each executed TTI is processed
// exactly like runNaive; the difference is that after the TTI's hooks,
// when the cell is provably inert — every flow quiescent and no bearer
// backlogged — the clock jumps straight to the next TTI at which
// anything can happen: the earliest pending event, the next group
// control tick, the next series sample, or the end of the run. The
// channel catches up over the skipped span, and each idle bearer ages
// over it when next read as it would over TTIs run one by one, so
// results are byte-identical to the naive loop.
//
// Quiescence is decided after RunTTI and the hooks because both can
// re-arm flows mid-TTI: radio delivery fires OnDeliver → player
// progress → a new segment request → Flow.Send.
func (s *Sim) runFast(ctx context.Context, durTTIs, sampleTTIs int64) error {
	for tti := int64(0); tti < durTTIs; {
		// Same cancellation-poll points as runNaive (multiples of 1024,
		// never TTI 0) so both loops observe a cancel at the same TTI —
		// see the runNaive comment for why TTI 0 is excluded.
		if tti&0x3ff == 0 && tti != 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		s.env.events.RunDue(tti)
		if s.env.tickDirty {
			s.rebuildTickList()
		}
		for _, f := range s.tickList {
			if f.Active() {
				f.Tick()
			} else {
				s.env.tickDirty = true
			}
		}
		s.enb.RunTTI(tti)
		if err := s.runHooks(tti, sampleTTIs); err != nil {
			return err
		}

		next := tti + 1
		if s.quiescent() {
			if w := s.wakeTTI(tti, durTTIs, sampleTTIs); w > next {
				s.enb.FastForwardIdle(tti, w)
				s.rec.Emit(obs.FastForward(int32(s.cellID), tti, w))
				next = w
			}
		}
		tti = next
		s.env.clock.AdvanceTo(tti)
	}
	return nil
}

// rebuildTickList recomputes the active-flow subset in canonical order.
func (s *Sim) rebuildTickList() {
	s.tickList = s.tickList[:0]
	for i := range s.flowSlab {
		if f := &s.flowSlab[i]; f.Active() {
			s.tickList = append(s.tickList, f)
		}
	}
	s.env.tickDirty = false
}

// quiescent reports whether skipping TTIs is provably a no-op right now:
// every active flow's Tick can't act (closed window) and no bearer has
// queued bytes, so only a scheduled event or a periodic hook can change
// any state. Flows outside the tick list are inactive, hence quiescent
// by definition; the list is refreshed first so no newly woken flow is
// missed.
func (s *Sim) quiescent() bool {
	if s.env.tickDirty {
		s.rebuildTickList()
	}
	for _, f := range s.tickList {
		if !f.Quiescent() {
			return false
		}
	}
	return s.enb.Idle()
}

// wakeTTI returns the next TTI at which anything observable can happen
// after t: the earliest pending event, each group's next control tick,
// the next series sample, or the end of the run — whichever comes first.
func (s *Sim) wakeTTI(t, durTTIs, sampleTTIs int64) int64 {
	w := durTTIs
	if ev, ok := s.env.events.NextDeadline(); ok && ev < w {
		w = ev
	}
	for _, g := range s.groups {
		if g.tickTTIs > 0 {
			if n := (t/g.tickTTIs + 1) * g.tickTTIs; n < w {
				w = n
			}
		}
	}
	if s.cfg.CollectSeries && sampleTTIs > 0 {
		if n := (t/sampleTTIs + 1) * sampleTTIs; n < w {
			w = n
		}
	}
	if w <= t {
		w = t + 1 // defensive: never move backwards
	}
	return w
}

func (s *Sim) buildResult() *Result {
	durSec := s.cfg.Duration.Seconds()
	// Sized up front, and nil when empty as they always were: the
	// result's JSON tells nil from empty.
	res := &Result{
		Scheme:  s.cfg.Scheme,
		Clients: slices.Grow([]ClientResult(nil), s.cfg.NumVideo),
		Data:    slices.Grow([]DataResult(nil), s.cfg.NumData),
	}
	for _, g := range s.groups {
		for _, f := range g.flows {
			cr := clientResult(f.ID, g.scheme, &f.Player, f.Transport, durSec)
			cr.Admitted = true
			if g.flowStats != nil {
				ex := g.flowStats.FlowExtras(f)
				cr.FallbackTransitions = ex.FallbackTransitions
				cr.FallbackIntervals = ex.FallbackIntervals
				cr.Admitted = ex.Admitted
				cr.StallSecondsPreAdmit = ex.PreAdmissionStallSeconds
			}
			res.Clients = append(res.Clients, cr)
		}
	}
	data := s.dataFlows()
	for i := range data {
		res.Data = append(res.Data, DataResult{
			FlowID:     s.cfg.NumVideo + i,
			AvgTputBps: float64(data[i].DeliveredTotal()) * 8 / durSec,
		})
	}
	for _, g := range s.groups {
		if ct := g.control; ct != nil {
			res.SolveTimesSec = ct.SolveTimes()
			res.ControlPlane = ct.ControlStats()
			break
		}
	}
	res.VideoRateSeries = s.rateSeries
	res.BufferSeries = s.bufSeries
	res.DataTputSeries = s.dataSeries
	return res
}

// clientResult reads one session's outcome off its player: the rate
// figures come from the player's running tally, which sums what a pass
// over the per-segment rates would, in that order.
func clientResult(flowID int, scheme Scheme, p *has.Player, flow *transport.Flow, durSec float64) ClientResult {
	tally := p.Tally()
	return ClientResult{
		FlowID:              flowID,
		Scheme:              scheme,
		AvgRateBps:          tally.AvgRateBps(),
		AvgTputBps:          float64(flow.DeliveredTotal()) * 8 / durSec,
		NumChanges:          tally.Changes(),
		Segments:            tally.Segments(),
		StallSeconds:        p.StallSeconds(),
		StallCount:          p.StallCount(),
		StartupDelaySeconds: p.StartupDelaySeconds(),
		QoEScore:            tally.Score(p.StallSeconds(), p.StartupDelaySeconds()),
	}
}

// Run is the package-level convenience: assemble and execute in one call.
func Run(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// RunContext is Run with cooperative cancellation (see Sim.RunContext).
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.RunContext(ctx)
}
