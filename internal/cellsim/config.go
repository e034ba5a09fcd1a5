// Package cellsim is the integration layer of the reproduction: it wires
// a channel model, a scheduler, TCP flows, HAS players, and one of the
// rate-adaptation systems (FLARE, FESTIVE, GOOGLE, AVIS) into a single
// deterministic cell simulation, and extracts the QoE metrics the
// paper's evaluation reports.
package cellsim

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/flare-sim/flare/internal/abr"
	"github.com/flare-sim/flare/internal/cellsim/driver"
	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/faults"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/obs"
	"github.com/flare-sim/flare/internal/transport"
)

// Scheme selects the rate-adaptation system under test.
type Scheme int

// The schemes the paper evaluates, plus two extension baselines from
// the client-side literature it cites (buffer-based adaptation and
// model-predictive control).
const (
	SchemeFLARE Scheme = iota + 1
	SchemeFESTIVE
	SchemeGOOGLE
	SchemeAVIS
	SchemeBBA
	SchemeMPC
)

// schemeRow is one scheme's row of the scheme table.
type schemeRow struct {
	// name is the display name: String, Result JSON and reports.
	name string
	// cli is the lower-case name the command-line tools accept.
	cli string
	// build constructs the scheme's driver for one video group.
	build func(driver.Config) driver.Controller
}

// schemes is the scheme table: every Scheme a cell can run, with its
// names and its driver. Adding a scheme is one constant above and one
// row here.
var schemes = map[Scheme]schemeRow{
	SchemeFLARE:   {"FLARE", "flare", driver.NewFLARE},
	SchemeFESTIVE: {"FESTIVE", "festive", driver.NewFESTIVE},
	SchemeGOOGLE:  {"GOOGLE", "google", driver.NewGOOGLE},
	SchemeAVIS:    {"AVIS", "avis", driver.NewAVIS},
	SchemeBBA:     {"BBA", "bba", driver.NewBBA},
	SchemeMPC:     {"MPC", "mpc", driver.NewMPC},
}

// String implements fmt.Stringer.
func (s Scheme) String() string {
	if row, ok := schemes[s]; ok {
		return row.name
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// ParseScheme resolves a scheme's lower-case command-line name
// ("flare", "festive", ...).
func ParseScheme(name string) (Scheme, error) {
	var names []string
	for _, s := range knownSchemes() {
		if schemes[s].cli == name {
			return s, nil
		}
		names = append(names, schemes[s].cli)
	}
	return 0, fmt.Errorf("cellsim: unknown scheme %q (known: %s)", name, strings.Join(names, ", "))
}

// knownSchemes lists the table's schemes in numbering order.
func knownSchemes() []Scheme {
	out := make([]Scheme, 0, len(schemes))
	for s := range schemes {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// FlowGroup assigns a contiguous block of video clients to one scheme's
// driver, enabling mixed-scheme cells (e.g. FLARE-coordinated players
// sharing a cell with unmodified FESTIVE players, each first-class and
// attributed in the Result).
type FlowGroup struct {
	// Scheme is the rate-adaptation system running this group.
	Scheme Scheme
	// Count is the number of video clients in the group.
	Count int
}

// videoGroups normalises the configuration's video population into
// per-scheme groups: VideoGroups wins when set; otherwise the whole
// population runs Config.Scheme. A single empty group is kept even for
// zero video clients so the scheme's driver still shapes the cell
// (scheduler policy, control ticks over data-only populations).
func (c *Config) videoGroups() []FlowGroup {
	if len(c.VideoGroups) > 0 {
		out := make([]FlowGroup, len(c.VideoGroups))
		copy(out, c.VideoGroups)
		return out
	}
	return []FlowGroup{{Scheme: c.Scheme, Count: c.NumVideo}}
}

// totalCount sums the groups' client counts.
func totalCount(groups []FlowGroup) int {
	n := 0
	for _, g := range groups {
		n += g.Count
	}
	return n
}

// ChannelKind selects the link model.
type ChannelKind int

// Channel kinds.
const (
	ChannelStatic ChannelKind = iota + 1
	ChannelCyclic
	ChannelMobility
	ChannelTrace
)

// ChannelSpec describes the channel model for a scenario.
type ChannelSpec struct {
	Kind ChannelKind
	// StaticITbs is the per-UE MCS for ChannelStatic.
	StaticITbs int
	// CyclicMin/Max/Period parameterise ChannelCyclic; per-UE phase
	// offsets are spread evenly across the period, modelling the
	// paper's "each UE starts the cycle with a different offset".
	CyclicMin, CyclicMax int
	CyclicPeriod         time.Duration
	// Mobility parameterises ChannelMobility (NumUEs is overridden); a
	// zero value, NumUEs aside, selects lte.DefaultMobilityConfig.
	Mobility lte.MobilityConfig
	// Traces are per-UE iTbs traces for ChannelTrace.
	Traces    [][]int
	TraceStep time.Duration
}

// Validate checks the link model: its kind, and each parameter that
// kind reads. An iTbs must lie in [lte.MinITbs, lte.MaxITbs].
func (c ChannelSpec) Validate() error {
	switch c.Kind {
	case ChannelStatic:
		return checkITbs("static", c.StaticITbs)
	case ChannelCyclic:
		if c.CyclicPeriod <= 0 {
			return fmt.Errorf("cellsim: cyclic channel needs a positive period")
		}
		if err := checkITbs("cyclic min", c.CyclicMin); err != nil {
			return err
		}
		return checkITbs("cyclic max", c.CyclicMax)
	case ChannelMobility:
	case ChannelTrace:
		if len(c.Traces) == 0 || c.TraceStep <= 0 {
			return fmt.Errorf("cellsim: trace channel needs traces and a positive step")
		}
	default:
		return fmt.Errorf("cellsim: unknown channel kind %d", int(c.Kind))
	}
	return nil
}

func checkITbs(what string, iTbs int) error {
	if iTbs < lte.MinITbs || iTbs > lte.MaxITbs {
		return fmt.Errorf("cellsim: %s iTbs %d out of [%d, %d]", what, iTbs, lte.MinITbs, lte.MaxITbs)
	}
	return nil
}

// Config describes one simulation run.
type Config struct {
	// Seed drives all randomness in the run.
	Seed uint64
	// Duration is the simulated time.
	Duration time.Duration
	// NumVideo and NumData are the flow populations (one UE each).
	NumVideo, NumData int
	// Ladder is the video encoding ladder.
	Ladder has.Ladder
	// SegmentDuration is the video segment length (Table III: 10 s).
	SegmentDuration time.Duration
	// VBRJitter sizes segments variably around the nominal encoding
	// rate (see has.MPD.SizeJitter). 0 = CBR.
	VBRJitter float64
	// ControlFaults injects faults into the FLARE control plane: the
	// eNodeB's statistics reports and the plugins' assignment polls
	// each get an independent injector stream derived from
	// ControlFaults.Seed, so a zero configuration leaves runs
	// byte-identical to fault-free ones. A lost report only delays
	// adaptation: installed GBRs and the last assignment persist.
	// Blackout windows take the whole plane down (reports and polls)
	// for their duration.
	ControlFaults faults.Config
	// Fallback parameterises the FLARE plugins' graceful degradation
	// (K failed polls / M-BAI-stale assignment → local ABR). The zero
	// value uses abr.DefaultFallbackConfig.
	Fallback abr.FallbackConfig
	// LowBufferCapSeconds is the FLARE plugin's buffer-feedback
	// threshold (Section II-B: "if the current amount of buffered video
	// is relatively small ... the client can specify an upper bound on
	// its bitrate to quickly fill the buffer"). While a player's buffer
	// sits below this level, its plugin caps the assignment one ladder
	// level below the current one so downloads outpace playback.
	// Negative disables; 0 uses the default (6 s).
	LowBufferCapSeconds float64
	// Scheme is the system under test. When VideoGroups is set it only
	// labels the Result; otherwise it runs the whole video population.
	Scheme Scheme
	// VideoGroups optionally splits the video population between several
	// schemes' drivers in one cell (a mixed-scheme deployment). When set
	// it overrides NumVideo (which, if non-zero, must equal the groups'
	// total). Flow IDs are assigned group by group, in order.
	VideoGroups []FlowGroup
	// Channel is the link model.
	Channel ChannelSpec

	// Flare configures the FLARE controller (BAI, alpha, delta, solver).
	Flare core.Config
	// Player configures the HAS player (buffer cap per the scenario).
	Player has.PlayerConfig
	// Transport configures the TCP model.
	Transport transport.Config

	// Churn, when enabled, *generates* the arrival/departure schedule:
	// Poisson arrivals with heavy-tailed (Pareto) durations, expanded
	// deterministically from Seed into VideoArrivals/VideoDepartures/
	// NumVideo at build time. Incompatible with setting those fields
	// explicitly and with VideoGroups.
	Churn ChurnConfig

	// VideoArrivals optionally staggers video-session start times (one
	// entry per video client). Unset clients start within the first two
	// seconds. The paper's Algorithm 1 explicitly permits bitrate drops
	// when "several new clients enter the system"; arrival schedules
	// exercise that path.
	VideoArrivals []time.Duration
	// VideoDepartures optionally ends video sessions early (one entry
	// per video client; 0 = stream to the end). Departed FLARE sessions
	// are unregistered from the OneAPI server, releasing their share.
	VideoDepartures []time.Duration

	// CollectSeries enables per-second time-series collection (the
	// Figure 4/5 views, sampled every sampleEvery); off by default to
	// keep large sweeps lean.
	CollectSeries bool

	// Obs attaches a telemetry recorder to the run: the engine stamps
	// events with the simulated clock, the drivers and control plane
	// emit their decisions into it, and RunContext dumps its flight
	// recorder when a run dies. Nil (the default) disables recording at
	// zero cost — disabled runs stay byte- and allocation-identical.
	Obs *obs.Recorder

	// DisableFastForward forces the naive TTI-by-TTI loop instead of the
	// quiescence-aware kernel that jumps the clock across dead air (no
	// pending event, no bearer backlog, no flow with an open window and
	// bytes to send). Fast-forward is byte-exact — Results are identical
	// either way, which the equivalence tests assert — so this knob
	// exists for those tests and for debugging, not for correctness.
	DisableFastForward bool
}

// DefaultConfig returns a baseline configuration for the given scheme:
// Table III simulation settings with Table IV parameters.
func DefaultConfig(scheme Scheme) Config {
	return Config{
		Seed:            1,
		Duration:        1200 * time.Second,
		NumVideo:        8,
		NumData:         0,
		Ladder:          has.SimLadder(),
		SegmentDuration: 10 * time.Second,
		Scheme:          scheme,
		Channel:         ChannelSpec{Kind: ChannelStatic, StaticITbs: 12},
		Flare:           core.DefaultConfig(),
		Player:          has.DefaultPlayerConfig(),
		Transport:       transport.DefaultConfig(),
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Duration <= 0 {
		return fmt.Errorf("cellsim: duration must be positive, got %v", c.Duration)
	}
	if c.NumVideo < 0 || c.NumData < 0 {
		return fmt.Errorf("cellsim: negative flow counts (%d video, %d data)", c.NumVideo, c.NumData)
	}
	numVideo := c.NumVideo
	if len(c.VideoGroups) > 0 {
		seen := make(map[Scheme]bool, len(c.VideoGroups))
		for i, g := range c.VideoGroups {
			if g.Count <= 0 {
				return fmt.Errorf("cellsim: video group %d (%s) needs a positive count, got %d",
					i, g.Scheme, g.Count)
			}
			if _, ok := schemes[g.Scheme]; !ok {
				return fmt.Errorf("cellsim: video group %d: unknown scheme %v (known: %v)", i, g.Scheme, knownSchemes())
			}
			if seen[g.Scheme] {
				return fmt.Errorf("cellsim: scheme %s appears in more than one video group", g.Scheme)
			}
			seen[g.Scheme] = true
		}
		numVideo = totalCount(c.VideoGroups)
		if c.NumVideo > 0 && c.NumVideo != numVideo {
			return fmt.Errorf("cellsim: NumVideo (%d) disagrees with video groups' total (%d)",
				c.NumVideo, numVideo)
		}
	}
	if numVideo+c.NumData == 0 {
		return fmt.Errorf("cellsim: no flows configured")
	}
	if numVideo > 0 {
		if err := c.Ladder.Validate(); err != nil {
			return fmt.Errorf("cellsim: %w", err)
		}
		if c.SegmentDuration <= 0 {
			return fmt.Errorf("cellsim: segment duration must be positive, got %v", c.SegmentDuration)
		}
	}
	if _, ok := schemes[c.Scheme]; !ok {
		return fmt.Errorf("cellsim: unknown scheme %v (known: %v)", c.Scheme, knownSchemes())
	}
	if err := c.ControlFaults.Validate(); err != nil {
		return fmt.Errorf("cellsim: control faults: %w", err)
	}
	if len(c.VideoArrivals) > 0 && len(c.VideoArrivals) != numVideo {
		return fmt.Errorf("cellsim: %d arrivals for %d video clients", len(c.VideoArrivals), numVideo)
	}
	if len(c.VideoDepartures) > 0 && len(c.VideoDepartures) != numVideo {
		return fmt.Errorf("cellsim: %d departures for %d video clients", len(c.VideoDepartures), numVideo)
	}
	return c.Channel.Validate()
}
