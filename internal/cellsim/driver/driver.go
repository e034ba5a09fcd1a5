// Package driver is the scheme-driver layer of the cell simulator: the
// seam between the scheme-agnostic engine (internal/cellsim, which owns
// the radio, transport, and player substrates and the TTI loop) and the
// rate-adaptation systems under test (FLARE, AVIS, and the client-only
// ABR family).
//
// A driver is a Controller implementation built by one exported
// constructor per scheme (NewFLARE, NewAVIS, NewFESTIVE, ...). The
// engine's scheme table names each constructor; the engine itself never
// dispatches on the scheme: it asks the driver for per-flow adapters and
// a radio-scheduler policy, hands it the built flows via Init, ticks it
// at its own control interval via OnBAI, and forwards early departures.
// A new scheme's driver implements Controller, embedding Base for the
// hooks it does not need.
package driver

import (
	"time"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/sim"
	"github.com/flare-sim/flare/internal/transport"
)

// Flow is one video session under a driver's control: the bearer it
// rides, the transport-level player downloading segments over it, and
// the adapter the driver built for it.
type Flow struct {
	// ID is the flow's bearer ID, unique within the cell.
	ID int
	// Index is the flow's position within the driver's group (0-based).
	Index int
	// UE is the flow's radio terminal index.
	UE int
	// Bearer is the LTE bearer carrying the flow.
	Bearer *lte.Bearer
	// Player is the HAS client state machine. It lives in the flow, in
	// the engine's never-reallocated slab: its handlers point at it.
	Player has.Player
	// Transport is the flow's transport-level pipe (ticked by the engine;
	// drivers normally only read delivery totals from it).
	Transport *transport.Flow
	// Adapter is the rate-adaptation algorithm driving the player — the
	// value returned by the driver's NewAdapter for this flow.
	Adapter has.Adapter
}

// Engine is the view of the cell the engine exposes to drivers: radio
// accounting and enforcement, plus the run's primary randomness stream.
type Engine interface {
	// CollectStats drains the per-bearer accounting windows of the given
	// flows and attaches the current-MCS efficiency hint — one control
	// interval's Statistics Reporter output. The read is destructive
	// (windows reset), so drivers must only collect their own flows.
	CollectStats(flows []*Flow) map[int]core.FlowStats
	// SetGBR installs a guaranteed bit rate for a flow at the eNodeB.
	SetGBR(flowID int, bps float64) error
	// SetMBR installs a maximum bit rate cap for a flow at the eNodeB.
	SetMBR(flowID int, bps float64) error
	// RNG is the simulation's primary randomness stream. Draws are part
	// of the deterministic replay, so drivers must draw identically for
	// identical configurations.
	RNG() *sim.RNG
}

// SchedulerPolicy expresses a driver's radio-scheduler requirement. In a
// mixed-scheme cell the engine picks the strongest policy any resident
// driver demands (GBR > Sliced > BestEffort).
type SchedulerPolicy int

const (
	// PolicyBestEffort needs no radio cooperation: plain proportional
	// fair (the client-only ABR schemes).
	PolicyBestEffort SchedulerPolicy = iota
	// PolicySliced statically partitions the cell between video and data
	// (AVIS). Drivers returning it should implement SliceSizer.
	PolicySliced
	// PolicyGBR serves per-flow guaranteed bit rates before sharing the
	// remainder proportionally fair (FLARE's two-phase scheduler).
	PolicyGBR
)

// Controller is one scheme's driver: the lifecycle hooks through which
// the engine runs a rate-adaptation system without knowing which one it
// is.
//
// Call order: NewAdapter (once per flow, during cell assembly) →
// Init (once, after every flow in the cell exists) → any interleaving of
// OnBAI / OnFlowDeparture during the run.
type Controller interface {
	// SchedulerPolicy declares the radio scheduler the scheme needs.
	SchedulerPolicy() SchedulerPolicy
	// NewAdapter builds the rate-adaptation adapter for the i-th flow of
	// this driver's group.
	NewAdapter(i int) (has.Adapter, error)
	// Init binds the driver to the engine and the flows of its group.
	// Flows are in group order; flows[i].Adapter is the value NewAdapter
	// returned for i. Every player of a cell streams the cell's one
	// presentation, so the flows share one MPD.
	Init(e Engine, flows []*Flow) error
	// Interval is the driver's control-plane tick period; 0 disables
	// ticks (pure client-side schemes).
	Interval() time.Duration
	// OnBAI runs one control interval at simulated time now: collect
	// stats, decide, enforce. Only called when Interval() > 0.
	OnBAI(now time.Duration) error
	// OnFlowDeparture tells the driver one of its flows ended its
	// session early, so network-side state can be released.
	OnFlowDeparture(f *Flow)
}

// ArrivalAware is implemented by drivers that need to know the moment a
// flow's session actually starts playing (as opposed to cell assembly,
// when every flow of the run is built ahead of time). The engine calls
// OnFlowArrival from the flow's arrival event, before its first
// download. FLARE opens its network sessions here — opening at Init
// would have the controller solve, budget and admit for flows that have
// not arrived yet. The engine resolves the extension once, at assembly.
type ArrivalAware interface {
	OnFlowArrival(f *Flow)
}

// SliceSizer is implemented by drivers whose SchedulerPolicy is
// PolicySliced: it sizes the static video share of the cell given the
// managed video and background populations. Background is the data
// flows plus every video group no network controller manages.
type SliceSizer interface {
	VideoFraction(numVideo, numBackground int) float64
}

// ControlStats aggregates a driver's control-plane fault activity over a
// run (all zero for fault-free runs).
type ControlStats struct {
	// ReportsLost counts statistics reports lost upstream (no control
	// decision ran that interval).
	ReportsLost int
	// PollsLost counts client assignment polls lost downstream.
	PollsLost int
	// EnforceFailures counts per-flow enforcement installs that failed
	// during otherwise-successful intervals.
	EnforceFailures int
	// AdmissionRejects counts session opens the admission predicate
	// refused (including bounded re-tries of the same flow).
	AdmissionRejects int
}

// ControlTelemetry is implemented by drivers with a network control
// plane, so the engine can surface its activity in the Result.
type ControlTelemetry interface {
	// ControlStats reports accumulated fault activity.
	ControlStats() ControlStats
	// SolveTimes reports per-interval optimiser wall times in seconds.
	SolveTimes() []float64
}

// FlowExtras are per-flow driver-side counters surfaced in the Result.
type FlowExtras struct {
	// FallbackTransitions counts coordination-mode switches.
	FallbackTransitions int
	// FallbackIntervals counts control intervals spent degraded.
	FallbackIntervals int
	// Admitted reports whether the flow's session was (ever) admitted to
	// the network control plane. Always true for schemes without
	// admission control.
	Admitted bool
	// PreAdmissionStallSeconds is the portion of the player's stall time
	// accrued before the session was admitted (plus a short settling
	// window after a mid-stream admission) — starvation from the
	// unadmitted local-ABR period, not a coordination failure. Zero for
	// schemes without admission control.
	PreAdmissionStallSeconds float64
}

// FlowTelemetry is implemented by drivers that keep per-flow
// coordination state worth reporting.
type FlowTelemetry interface {
	FlowExtras(f *Flow) FlowExtras
}

// Base provides no-op implementations of the optional Controller hooks,
// so a minimal scheme only implements NewAdapter and whatever it
// actually needs.
type Base struct{}

// SchedulerPolicy implements Controller: best-effort radio.
func (Base) SchedulerPolicy() SchedulerPolicy { return PolicyBestEffort }

// Init implements Controller: nothing to bind.
func (Base) Init(Engine, []*Flow) error { return nil }

// Interval implements Controller: no control ticks.
func (Base) Interval() time.Duration { return 0 }

// OnBAI implements Controller: nothing to run.
func (Base) OnBAI(time.Duration) error { return nil }

// OnFlowDeparture implements Controller: ignored.
func (Base) OnFlowDeparture(*Flow) {}

// clampedInterval converts a requested control period to the engine's
// tick grid, enforcing a floor in TTIs.
func clampedInterval(d time.Duration, minTTIs int64) time.Duration {
	ttis := sim.DurationToTTIs(d)
	if ttis < minTTIs {
		ttis = minTTIs
	}
	return time.Duration(ttis) * sim.TTI
}
