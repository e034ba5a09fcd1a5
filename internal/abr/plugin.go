package abr

import (
	"fmt"

	"github.com/flare-sim/flare/internal/has"
)

// PluginMode is the FLARE plugin's coordination state.
type PluginMode int

const (
	// ModeCoordinated follows the OneAPI server's assignments strictly
	// — "UEs always utilize the bitrates assigned by the HAS network
	// entity".
	ModeCoordinated PluginMode = iota
	// ModeFallback is the graceful-degradation state: coordination is
	// lost (failed polls or a stale assignment) and the plugin adapts
	// with a local throughput-based ABR until the control plane
	// recovers. Degraded FLARE behaves like a conventional client-side
	// player — never worse — instead of freezing on a dead assignment.
	ModeFallback
)

// String implements fmt.Stringer.
func (m PluginMode) String() string {
	switch m {
	case ModeCoordinated:
		return "coordinated"
	case ModeFallback:
		return "fallback"
	default:
		return fmt.Sprintf("PluginMode(%d)", int(m))
	}
}

// TransitionReason explains a plugin mode transition to observers.
type TransitionReason int

const (
	// ReasonFreshAssignment: a new-sequence assignment arrived and the
	// plugin rejoined coordination.
	ReasonFreshAssignment TransitionReason = iota
	// ReasonFailedPolls: K consecutive assignment polls failed.
	ReasonFailedPolls
	// ReasonStaleAssignment: the assignment stopped advancing for M BAIs.
	ReasonStaleAssignment
)

// String implements fmt.Stringer.
func (r TransitionReason) String() string {
	switch r {
	case ReasonFreshAssignment:
		return "fresh_assignment"
	case ReasonFailedPolls:
		return "failed_polls"
	case ReasonStaleAssignment:
		return "stale_assignment"
	default:
		return fmt.Sprintf("TransitionReason(%d)", int(r))
	}
}

// TransitionObserver is notified on every plugin mode transition: the
// new mode, why, and the triggering counter (consecutive failed polls
// or stale BAIs; 0 on recovery). The simulator's driver uses it to emit
// fallback/recover telemetry events with simulated timestamps.
type TransitionObserver func(to PluginMode, reason TransitionReason, count int)

// FallbackConfig parameterises the plugin's degradation policy. The
// zero value is normalised to the defaults below.
type FallbackConfig struct {
	// AfterFailedPolls is K: this many consecutive failed assignment
	// polls switch the plugin to fallback (default 3).
	AfterFailedPolls int
	// MaxAssignmentAgeBAIs is M: an assignment that has not advanced
	// for this many BAIs — the control plane answers but this flow's
	// GBR installs keep failing, or the server stopped running BAIs —
	// also triggers fallback (default 4).
	MaxAssignmentAgeBAIs int
	// SafetyFactor discounts the fallback throughput estimate before
	// picking a level, absorbing estimate noise without the network's
	// radio knowledge (default 0.85).
	SafetyFactor float64
	// WindowSegments is the throughput-history window for the local
	// estimator (default 3, matching the AVIS companion client).
	WindowSegments int
}

// DefaultFallbackConfig returns the paper-plausible degradation
// parameters: fall back after 3 lost polls or a 4-BAI-stale assignment.
func DefaultFallbackConfig() FallbackConfig {
	return FallbackConfig{
		AfterFailedPolls:     3,
		MaxAssignmentAgeBAIs: 4,
		SafetyFactor:         0.85,
		WindowSegments:       3,
	}
}

func (c FallbackConfig) normalized() FallbackConfig {
	d := DefaultFallbackConfig()
	if c.AfterFailedPolls <= 0 {
		c.AfterFailedPolls = d.AfterFailedPolls
	}
	if c.MaxAssignmentAgeBAIs <= 0 {
		c.MaxAssignmentAgeBAIs = d.MaxAssignmentAgeBAIs
	}
	if c.SafetyFactor <= 0 || c.SafetyFactor > 1 {
		c.SafetyFactor = d.SafetyFactor
	}
	if c.WindowSegments <= 0 {
		c.WindowSegments = d.WindowSegments
	}
	return c
}

// FlarePlugin is the FLARE client-side plugin's adaptation behaviour:
// the player uses the bitrate most recently assigned by the OneAPI
// server, optionally clipped by a client-side preference cap (e.g. a
// mobile-data budget). Before the first assignment arrives it streams
// at the lowest rate.
//
// Strict enforcement is FLARE's key coordination property, but it only
// holds while coordination *works*: the plugin tracks poll failures and
// assignment age, degrades to a local throughput-based ABR when the
// control plane is lost (ModeFallback), and rejoins coordination as
// soon as a fresh assignment arrives. Mode transitions are counted for
// the simulator's Result.
type FlarePlugin struct {
	assignedBps float64
	maxBps      float64 // 0 = no client cap

	fb   FallbackConfig
	hist History

	mode        PluginMode
	lastSeq     int64
	failedPolls int
	staleBAIs   int
	transitions int
	fallbackOps int // control-plane intervals spent in fallback

	onTransition TransitionObserver // optional; see SetTransitionObserver
}

var _ has.Adapter = (*FlarePlugin)(nil)

// NewFlarePlugin builds a plugin adapter with no assignment yet and the
// default fallback policy.
func NewFlarePlugin() *FlarePlugin {
	return NewFlarePluginWithFallback(FallbackConfig{})
}

// NewFlarePluginWithFallback builds a plugin with an explicit
// degradation policy.
func NewFlarePluginWithFallback(fb FallbackConfig) *FlarePlugin {
	return &NewFlarePlugins(1, fb)[0]
}

// NewFlarePlugins builds n plugins sharing one degradation policy as
// one slab: the plugins are the elements of the returned slice and
// their throughput histories are windows of a single backing array, so
// a cell's worth of sessions costs two allocations rather than three
// per session. Use the elements in place (&ps[i]).
func NewFlarePlugins(n int, fb FallbackConfig) []FlarePlugin {
	fb = fb.normalized()
	w := fb.WindowSegments
	samples := make([]float64, n*w)
	ps := make([]FlarePlugin, n)
	for i := range ps {
		// Set in place: the slab is zeroed already.
		ps[i].fb = fb
		ps[i].hist.samples = samples[i*w : i*w : (i+1)*w]
	}
	return ps
}

// Name implements has.Adapter.
func (p *FlarePlugin) Name() string { return "flare" }

// SetTransitionObserver installs a mode-transition callback (nil
// removes it). The observer fires synchronously inside Deliver /
// PollFailed, after the mode has changed.
func (p *FlarePlugin) SetTransitionObserver(fn TransitionObserver) { p.onTransition = fn }

func (p *FlarePlugin) notify(reason TransitionReason, count int) {
	if p.onTransition != nil {
		p.onTransition(p.mode, reason, count)
	}
}

// SetAssignedBps installs the bitrate assigned by the OneAPI server
// without sequence bookkeeping — the legacy push path. Prefer Deliver,
// which also feeds the staleness detector.
func (p *FlarePlugin) SetAssignedBps(bps float64) { p.assignedBps = bps }

// AssignedBps returns the current assignment (0 before the first one).
func (p *FlarePlugin) AssignedBps() float64 { return p.assignedBps }

// Deliver records one successful assignment poll: the assigned bitrate
// and the BAI sequence it was installed in. A fresh sequence restores
// coordination (recovering from fallback if needed); a repeated
// sequence means the assignment is going stale — the control plane
// answers but no new BAI has covered this flow — and after
// MaxAssignmentAgeBAIs repeats the plugin degrades.
func (p *FlarePlugin) Deliver(bps float64, seq int64) {
	p.tickFallback()
	if seq > p.lastSeq {
		p.lastSeq = seq
		p.assignedBps = bps
		p.failedPolls = 0
		p.staleBAIs = 0
		if p.mode == ModeFallback {
			p.mode = ModeCoordinated
			p.transitions++
			p.notify(ReasonFreshAssignment, 0)
		}
		return
	}
	// Same (or rewound, e.g. server restart) sequence: stale.
	p.failedPolls = 0
	p.staleBAIs++
	if p.mode == ModeCoordinated && p.staleBAIs >= p.fb.MaxAssignmentAgeBAIs {
		p.mode = ModeFallback
		p.transitions++
		p.notify(ReasonStaleAssignment, p.staleBAIs)
	}
}

// PollFailed records one failed assignment poll (timeout, drop, server
// blackout). After AfterFailedPolls consecutive failures the plugin
// degrades to its local ABR so the session never stalls on a dead
// control plane.
func (p *FlarePlugin) PollFailed() {
	p.tickFallback()
	p.failedPolls++
	if p.mode == ModeCoordinated && p.failedPolls >= p.fb.AfterFailedPolls {
		p.mode = ModeFallback
		p.transitions++
		p.notify(ReasonFailedPolls, p.failedPolls)
	}
}

func (p *FlarePlugin) tickFallback() {
	if p.mode == ModeFallback {
		p.fallbackOps++
	}
}

// Mode returns the plugin's current coordination state.
func (p *FlarePlugin) Mode() PluginMode { return p.mode }

// Transitions counts mode switches (both degradations and recoveries).
func (p *FlarePlugin) Transitions() int { return p.transitions }

// FallbackIntervals counts control-plane intervals (BAIs) the plugin
// spent degraded.
func (p *FlarePlugin) FallbackIntervals() int { return p.fallbackOps }

// SetMaxBps installs a client-side bitrate cap; 0 removes it. The cap is
// one of the optional client preferences Section II-B describes ("the
// client can specify an upper bound on its bitrate").
func (p *FlarePlugin) SetMaxBps(bps float64) { p.maxBps = bps }

// MaxBps returns the client-side cap (0 = none).
func (p *FlarePlugin) MaxBps() float64 { return p.maxBps }

// OnSegmentComplete implements has.Adapter. Coordinated FLARE does not
// estimate bandwidth — the network knows the radio state better than
// the client — but the plugin keeps a small throughput history warm so
// the fallback ABR has something to stand on the moment coordination
// is lost.
func (p *FlarePlugin) OnSegmentComplete(rec has.SegmentRecord) {
	p.hist.Add(rec.ThroughputBps)
}

// NextQuality implements has.Adapter.
func (p *FlarePlugin) NextQuality(s has.State) int {
	if p.mode == ModeFallback {
		return p.fallbackQuality(s)
	}
	bps := p.assignedBps
	if p.maxBps > 0 && (bps == 0 || p.maxBps < bps) {
		bps = p.maxBps
	}
	if bps <= 0 {
		return 0
	}
	return s.Ladder.HighestAtMost(bps)
}

// fallbackQuality is the degraded-mode ABR: harmonic-mean throughput of
// the recent segments, discounted by the safety factor, clipped by the
// client cap. With no history yet it plays safe at the lowest level.
func (p *FlarePlugin) fallbackQuality(s has.State) int {
	if p.hist.Len() == 0 {
		return 0
	}
	bps := p.fb.SafetyFactor * p.hist.HarmonicMean(0)
	if p.maxBps > 0 && p.maxBps < bps {
		bps = p.maxBps
	}
	if bps <= 0 {
		return 0
	}
	return s.Ladder.HighestAtMost(bps)
}
