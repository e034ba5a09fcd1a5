package driver

import (
	"errors"
	"fmt"
	"time"

	"github.com/flare-sim/flare/internal/abr"
	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/faults"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/obs"
	"github.com/flare-sim/flare/internal/oneapi"
)

func init() {
	Register("FLARE", newFlareDriver)
}

// flareDriver runs the paper's system: a OneAPI server (shared or
// private) computes per-BAI bitrate assignments from eNodeB statistics
// reports, installs them as GBRs through the PCEF, and the per-flow
// plugins poll their assignments — with the control-plane fault
// injectors and the plugins' graceful degradation in the loop.
type flareDriver struct {
	cfg    Config
	server *oneapi.Server
	cellID int

	e     Engine
	flows []*Flow
	// plugins is the group's plugin slab, parallel to flows: NewAdapter(i)
	// hands out &plugins[i].
	plugins []abr.FlarePlugin

	// Control-plane fault injection (nil when disabled): independent
	// decision streams for the eNodeB's stats reports and the plugins'
	// assignment polls.
	statsFaults *faults.Injector
	pollFaults  *faults.Injector
	ctrl        ControlStats

	// rec is the telemetry recorder (nil = disabled).
	rec *obs.Recorder

	// Buffer-feedback state: the active per-flow cap in bps (0 = none).
	bufferCaps []float64

	// Admission-mode state, parallel to flows; nil when the controller
	// runs without admission control. Sessions then all open at Init.
	// The paper's plugin registers a session when it starts, so that
	// matches the paper only when every client starts together: under
	// churn a flow that arrives late is registered, solved for and
	// budgeted RBs from t=0. See OnFlowArrival.
	admission []flowAdmission
	baiCount  int64 // OnBAI ordinal, the clock for admission re-tries

	// The in-process BAI round runs on storage the driver owns: pcef is
	// its enforcement hook, adapted once at Init, and resp the response
	// every round is written into (read only until the next round).
	pcef oneapi.PCEF
	resp oneapi.StatsResponse
}

// flowAdmission tracks one flow's session through the admission state
// machine: not yet arrived → arrived (open attempted, possibly
// rejected and re-tried with a doubling gap) → opened.
type flowAdmission struct {
	arrived    bool
	opened     bool
	everOpened bool
	nextTry    int64 // BAI ordinal of the next open attempt
	gap        int64 // current re-try gap in BAIs
	// stallBase is the player's cumulative stall time at the moment the
	// coordinated plane takes ownership of the flow — stalls accrued
	// before it are starvation from the unadmitted (local-ABR) period
	// and the recovery from it, not a coordination failure. Ownership
	// transfers once the grace window has passed AND the plane has
	// delivered the player a healthy buffer for the first time; until
	// then the base keeps tracking the stall total (graceBAI 0 = settled,
	// no sample pending).
	stallBase float64
	graceBAI  int64
}

// admissionRetryCap bounds the doubling re-try gap: an unadmitted flow
// keeps knocking at least every 16 BAIs while it plays on local ABR.
const admissionRetryCap = 16

// admissionGBRHeadroom inflates installed GBRs when admission control is
// active. The admission budget plans at CapacityMargin of the cell, so
// the margin is guaranteed spare; handing it back as per-flow
// enforcement headroom keeps floor-pinned flows strictly above their
// encoding rate. (A GBR exactly at the encoding rate is a knife edge:
// any scheduling or request-pipeline gap drains the buffer, and at a
// refill rate of ~zero a single stall can last tens of seconds.)
const admissionGBRHeadroom = 1.1

// admissionGraceBAIs is the minimum settling window after a mid-stream
// admission: one interval for the first coordinated assignment to
// arrive plus one for refill to begin. Ownership of stall time only
// transfers to the coordinated plane once this window has passed and
// the player's buffer has first reached admissionHealthyBufferSeconds —
// a flow admitted off the wait queue with a starved buffer refills at
// floor x headroom minus the play rate, which can take tens of seconds
// under deep saturation, and stalls during that recovery are still the
// admission policy's queueing choice (see flowAdmission.stallBase).
const admissionGraceBAIs = 2

// admissionHealthyBufferSeconds is the playout-buffer level at which the
// coordinated plane is considered to have recovered an admitted flow
// from its pre-admission starvation (two segments at the saturation
// scenarios' 2 s segment duration).
const admissionHealthyBufferSeconds = 4.0

var (
	_ Controller       = (*flareDriver)(nil)
	_ ControlTelemetry = (*flareDriver)(nil)
	_ FlowTelemetry    = (*flareDriver)(nil)
	_ ArrivalAware     = (*flareDriver)(nil)
)

func newFlareDriver(cfg Config) (Controller, error) {
	d := &flareDriver{cfg: cfg, server: cfg.OneAPI, cellID: cfg.CellID, rec: cfg.Obs}
	d.plugins = abr.NewFlarePlugins(cfg.Count, cfg.Fallback)
	if d.server == nil {
		if cfg.ControlShards > 0 {
			d.server = oneapi.NewServerSharded(cfg.Flare, nil, cfg.ControlShards)
		} else {
			d.server = oneapi.NewServer(cfg.Flare, nil)
		}
	}
	if cfg.Obs != nil {
		// Never clobber a shared server's recorder with nil.
		d.server.SetRecorder(cfg.Obs)
	}
	if cfg.ControlFaults.Enabled() {
		// Independent streams so report fate never perturbs poll fate;
		// both derive deterministically from the fault seed.
		statsCfg, pollCfg := cfg.ControlFaults, cfg.ControlFaults
		pollCfg.Seed = statsCfg.Seed ^ 0x9e3779b97f4a7c15
		d.statsFaults = faults.New(statsCfg)
		d.pollFaults = faults.New(pollCfg)
		if cfg.Obs != nil {
			d.statsFaults.SetObserver(faultObserver(cfg.Obs, cfg.CellID, obs.SiteStats))
			d.pollFaults.SetObserver(faultObserver(cfg.Obs, cfg.CellID, obs.SitePoll))
		}
	}
	return d, nil
}

// faultObserver adapts injected fault decisions into telemetry events
// tagged with the control-plane site they struck.
func faultObserver(rec *obs.Recorder, cellID int, site obs.Site) faults.Observer {
	return func(_ time.Duration, dec faults.Decision) {
		rec.Emit(obs.Fault(int32(cellID), site, uint8(dec.Outcome)))
	}
}

// Name implements Controller.
func (d *flareDriver) Name() string { return d.cfg.Scheme }

// SchedulerPolicy implements Controller: FLARE needs GBR enforcement.
func (d *flareDriver) SchedulerPolicy() SchedulerPolicy { return PolicyGBR }

// NewAdapter implements Controller: every flow gets a FLARE plugin with
// the configured degradation policy.
func (d *flareDriver) NewAdapter(i int) (has.Adapter, error) {
	if i < 0 || i >= len(d.plugins) {
		return nil, fmt.Errorf("driver: FLARE adapter %d outside the group's %d flows", i, len(d.plugins))
	}
	return &d.plugins[i], nil
}

// sessionRequest builds the open request for one of the driver's flows.
// It carries the presentation's shared read-only ladder: the session
// keeps it without copying and never writes to it.
func (d *flareDriver) sessionRequest(f *Flow) oneapi.SessionRequest {
	return oneapi.SessionRequest{FlowID: f.ID, LadderBps: f.Player.MPD().SharedLadder()}
}

// Init implements Controller: open a OneAPI session per flow, as one
// group (admission control defers each to its arrival instead), and
// register the cell's background traffic (data flows and co-resident
// video groups of other schemes) as data flows at the PCRF — to the
// FLARE controller they are all just competing traffic.
func (d *flareDriver) Init(e Engine, flows []*Flow) error {
	d.e = e
	d.flows = flows
	d.pcef = oneapi.PCEFBatchFunc(d.installGBRs)
	if d.cfg.Flare.AdmissionControl {
		// Sessions open at arrival time instead (OnFlowArrival): opening
		// here would charge the admission predicate for flows that have
		// not started yet.
		d.admission = make([]flowAdmission, len(flows))
	} else if len(flows) > 0 {
		// The group's players all stream the cell's one presentation,
		// so its sessions share one ladder and open as one group.
		ids := make([]int, len(flows))
		for i, f := range flows {
			ids[i] = f.ID
		}
		if err := d.server.OpenGroup(d.cellID, flows[0].Player.MPD().SharedLadder(), ids); err != nil {
			return err
		}
	}
	for _, id := range d.cfg.BackgroundFlowIDs {
		d.server.PCRF().RegisterDataFlow(d.cellID, id)
	}
	if d.rec.Enabled() {
		// Wire each plugin's mode transitions into the trace, tagged
		// with the flow the plugin serves.
		for i := range flows {
			flowID := int32(flows[i].ID)
			d.plugins[i].SetTransitionObserver(func(to abr.PluginMode, reason abr.TransitionReason, count int) {
				ev := obs.Recovery(int32(d.cellID), flowID, int32(count))
				if to == abr.ModeFallback {
					why := obs.ReasonStale
					if reason == abr.ReasonFailedPolls {
						why = obs.ReasonPolls
					}
					ev = obs.Fallback(int32(d.cellID), flowID, why, int32(count))
				}
				d.rec.Emit(ev)
			})
		}
	}
	return nil
}

// Interval implements Controller: the BAI, floored at 100 TTIs.
func (d *flareDriver) Interval() time.Duration {
	return clampedInterval(d.cfg.Flare.BAI, 100)
}

// lowBufferCap returns the Section II-B buffer-feedback threshold.
func (d *flareDriver) lowBufferCap() float64 {
	if d.cfg.LowBufferCapSeconds < 0 {
		return 0
	}
	if d.cfg.LowBufferCapSeconds == 0 {
		return 6
	}
	return d.cfg.LowBufferCapSeconds
}

// sendBufferFeedback updates each plugin's preference cap from its
// player's buffer state: a low buffer caps the next assignment one level
// down so the session refills; the cap is held (with hysteresis) until
// the buffer recovers to twice the threshold, then cleared.
func (d *flareDriver) sendBufferFeedback() {
	threshold := d.lowBufferCap()
	if threshold <= 0 {
		return
	}
	if d.bufferCaps == nil {
		d.bufferCaps = make([]float64, len(d.flows))
	}
	for i, f := range d.flows {
		plugin := &d.plugins[i]
		if f.Player.Done() {
			continue
		}
		buf := f.Player.BufferSeconds()
		switch {
		case d.bufferCaps[i] == 0 && buf < threshold:
			if cur := plugin.AssignedBps(); cur > 0 {
				lvl := d.cfg.Ladder.HighestAtMost(cur)
				if lvl > 0 {
					lvl--
				}
				d.bufferCaps[i] = d.cfg.Ladder.Rate(lvl)
			}
		case d.bufferCaps[i] > 0 && buf > 2*threshold:
			d.bufferCaps[i] = 0
		}
		// Departed sessions are unregistered; ignore their errors.
		_ = d.server.SetPreferences(d.cellID, f.ID,
			core.Preferences{MaxBps: d.bufferCaps[i]})
	}
}

// OnFlowArrival implements ArrivalAware: in admission mode the flow's
// session opens here, at the moment it actually starts. A rejection is
// not fatal — the flow starts on its plugin's local ABR and the open is
// re-tried on a doubling BAI gap (and a server-side queue promotion is
// picked up by the poll loop even sooner).
func (d *flareDriver) OnFlowArrival(f *Flow) {
	if d.admission == nil || f.Index < 0 || f.Index >= len(d.admission) {
		return
	}
	st := &d.admission[f.Index]
	st.arrived = true
	d.tryOpen(f, st)
}

// tryOpen attempts one admission-mode session open and advances the
// flow's re-try schedule.
func (d *flareDriver) tryOpen(f *Flow, st *flowAdmission) {
	err := d.server.OpenSession(d.cellID, d.sessionRequest(f))
	switch {
	case err == nil:
		st.opened = true
		st.everOpened = true
		st.gap = 0
		st.stallBase = f.Player.StallSeconds()
		st.graceBAI = d.baiCount + admissionGraceBAIs
	case errors.Is(err, oneapi.ErrAdmissionRejected):
		d.ctrl.AdmissionRejects++
		if st.gap == 0 {
			st.gap = 1
		} else if st.gap < admissionRetryCap {
			st.gap *= 2
			if st.gap > admissionRetryCap {
				st.gap = admissionRetryCap
			}
		}
		st.nextTry = d.baiCount + st.gap
	default:
		// Transient (non-admission) failure: knock again next interval.
		st.nextTry = d.baiCount + 1
	}
}

// retryAdmissions re-attempts due opens before the interval's report,
// so a freshly admitted flow is part of this BAI's optimisation.
func (d *flareDriver) retryAdmissions() {
	for i, f := range d.flows {
		st := &d.admission[i]
		if !st.arrived || st.opened || f.Player.Done() || d.baiCount < st.nextTry {
			continue
		}
		d.tryOpen(f, st)
	}
}

// installGBRs is the driver's PCEF: one round's GBRs installed at the
// eNodeB in assignment order, every one attempted whatever the others
// did. It returns nil when all went in, the per-install outcomes
// otherwise.
func (d *flareDriver) installGBRs(installs []oneapi.GBRInstall) []error {
	var errs []error
	for i, in := range installs {
		gbr := in.GBRBps
		if d.admission != nil {
			gbr *= admissionGBRHeadroom
		}
		if err := d.e.SetGBR(in.FlowID, gbr); err != nil {
			if errs == nil {
				errs = make([]error, len(installs))
			}
			errs[i] = err
		}
	}
	return errs
}

// OnBAI implements Controller: one control-plane interval end to end —
// the eNodeB's statistics report upstream (which triggers the BAI) and
// each plugin's assignment poll downstream. Either leg can be lost to
// the fault injectors; a lost report means the eNodeB keeps its GBRs and
// the window accounting accumulates into the next report, while lost
// polls feed the plugins' fallback detectors. With no faults configured
// the behaviour — and the RNG stream — is identical to a direct push.
//
// A steady-state round allocates nothing: report map, PCEF, response and
// every buffer below them belong to the engine, this driver, the server's
// cell or its controller, and are reused from round to round
// (cellsim's TestInProcessRoundAllocs holds it to that).
func (d *flareDriver) OnBAI(now time.Duration) error {
	d.baiCount++
	if d.admission != nil {
		d.retryAdmissions()
	}
	if d.statsFaults != nil && d.statsFaults.Decide(now).Lost() {
		d.ctrl.ReportsLost++
		d.rec.Emit(obs.ReportLost(int32(d.cellID)))
	} else {
		d.sendBufferFeedback()
		report := oneapi.StatsReport{Flows: d.e.CollectStats(d.flows), NumDataFlows: -1}
		if err := d.server.RunBAIInto(d.cellID, report, d.pcef, &d.resp); err != nil {
			// Declared here, not above: errors.As makes its target escape.
			var enforceErr *oneapi.EnforceError
			if !errors.As(err, &enforceErr) {
				return err
			}
			// Partial enforcement is degraded, not fatal: the failed
			// flows keep their previous GBR and assignment, and their
			// plugins will see the assignment age until they degrade.
			d.ctrl.EnforceFailures += len(enforceErr.Failed)
		}
	}

	// Downstream: each live plugin polls its assignment. The server
	// answers from its current table whether or not this interval's BAI
	// ran; a dropped poll feeds the fallback detector instead.
	for i, f := range d.flows {
		plugin := &d.plugins[i]
		if f.Player.Done() {
			continue
		}
		if d.admission != nil {
			st := &d.admission[i]
			if !st.arrived {
				continue // session not started yet: nothing to poll
			}
			if !st.opened {
				// Waiting for admission: the flow plays on its local
				// ABR. A successful poll means the server promoted the
				// session from its wait queue — upgrade to coordinated
				// on the spot; otherwise feed the fallback detector so
				// the plugin degrades promptly.
				if a, ok := d.server.Assignment(d.cellID, f.ID); ok {
					st.opened = true
					st.everOpened = true
					st.gap = 0
					st.stallBase = f.Player.StallSeconds()
					st.graceBAI = d.baiCount + admissionGraceBAIs
					d.rec.Emit(obs.Deliver(int32(d.cellID), int32(f.ID), a.BAISeq, int32(a.Level), a.RateBps))
					plugin.Deliver(a.RateBps, a.BAISeq)
				} else {
					plugin.PollFailed()
				}
				continue
			}
			if st.graceBAI != 0 && d.baiCount >= st.graceBAI {
				// Grace passed: keep absorbing stall time into the base
				// until the plane has refilled the player once; from
				// that first healthy buffer on, stalls are the
				// coordinated plane's responsibility.
				st.stallBase = f.Player.StallSeconds()
				if f.Player.BufferSeconds() >= admissionHealthyBufferSeconds {
					st.graceBAI = 0
				}
			}
		}
		if d.pollFaults != nil && d.pollFaults.Decide(now).Lost() {
			d.ctrl.PollsLost++
			d.rec.Emit(obs.PollLost(int32(d.cellID), int32(f.ID)))
			plugin.PollFailed()
			continue
		}
		a, ok := d.server.Assignment(d.cellID, f.ID)
		if !ok {
			// No BAI has covered the flow yet (or its session closed):
			// nothing to deliver, nothing failed.
			continue
		}
		d.rec.Emit(obs.Deliver(int32(d.cellID), int32(f.ID), a.BAISeq, int32(a.Level), a.RateBps))
		plugin.Deliver(a.RateBps, a.BAISeq)
	}
	return nil
}

// OnFlowDeparture implements Controller: release the flow's session so
// the next BAI redistributes its share.
func (d *flareDriver) OnFlowDeparture(f *Flow) {
	d.server.CloseSession(d.cellID, f.ID)
	if d.admission != nil && f.Index >= 0 && f.Index < len(d.admission) {
		st := &d.admission[f.Index]
		st.arrived = false
		st.opened = false
	}
}

// Close implements Controller. Sessions are deliberately left open: a
// shared OneAPI server outlives the run (re-opening is idempotent), and
// solve-time telemetry is read after the run ends.
func (d *flareDriver) Close() error { return nil }

// ControlStats implements ControlTelemetry.
func (d *flareDriver) ControlStats() ControlStats { return d.ctrl }

// SolveTimes implements ControlTelemetry.
func (d *flareDriver) SolveTimes() []float64 { return d.server.SolveTimes(d.cellID) }

// FlowExtras implements FlowTelemetry: the plugin's coordination-mode
// counters.
func (d *flareDriver) FlowExtras(f *Flow) FlowExtras {
	admitted := true
	var preStall float64
	if d.admission != nil && f.Index >= 0 && f.Index < len(d.admission) {
		st := d.admission[f.Index]
		admitted = st.everOpened
		preStall = st.stallBase
	}
	if f.Index < 0 || f.Index >= len(d.plugins) {
		return FlowExtras{Admitted: admitted, PreAdmissionStallSeconds: preStall}
	}
	p := &d.plugins[f.Index]
	return FlowExtras{
		FallbackTransitions:      p.Transitions(),
		FallbackIntervals:        p.FallbackIntervals(),
		Admitted:                 admitted,
		PreAdmissionStallSeconds: preStall,
	}
}
