package flaresuite

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"github.com/flare-sim/flare/internal/cellsim"
	"github.com/flare-sim/flare/internal/faults"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/lte"
)

// The axis taxonomy. Every scenario is one point (or, with a Matrix, a
// cross-product of points) in this space; BuildConfig compiles a point
// into a cellsim.Config. Unknown values are errors, not silent
// defaults — the registry validates every spec at registration time.
const (
	// Channel axis: the link model under the cell.
	ChannelStatic     = "static"     // fixed MCS for every UE
	ChannelCyclic     = "cyclic"     // the dynamic-testbed 1->12->1 MCS cycle
	ChannelPedestrian = "pedestrian" // mobility model at walking speeds
	ChannelVehicular  = "vehicular"  // mobility model at vehicular speeds

	// Churn axis: how sessions arrive and depart.
	ChurnNone   = "none"   // fixed population, full-run sessions
	ChurnSteady = "steady" // Poisson arrivals / Pareto durations at Load x floor capacity
	ChurnFlash  = "flash"  // a resident cohort plus one synchronized arrival burst
	ChurnSoak   = "soak"   // steady churn over a long-horizon (1 h base) run

	// Fault axis: control-plane fault injection (FLARE mixes only).
	FaultNone     = "none"
	FaultLoss10   = "loss10"   // 10% of reports and polls dropped
	FaultLoss30   = "loss30"   // 30%
	FaultLoss50   = "loss50"   // 50%
	FaultBlackout = "blackout" // total control loss through the middle third

	// Mix axis: which scheme(s) drive the video population.
	MixFLARE        = "flare"
	MixFESTIVE      = "festive"
	MixGOOGLE       = "google"
	MixAVIS         = "avis"
	MixBBA          = "bba"
	MixMPC          = "mpc"
	MixFLAREFESTIVE = "flare+festive" // 4 coordinated + 4 conventional players

	// Ladder axis: the encoding ladder (and its segment duration).
	LadderSim     = "sim"     // Table III: 6 levels, 10 s segments
	LadderTestbed = "testbed" // femtocell: 8 levels, 2 s segments
	LadderFine    = "fine"    // Figures 8-10: 12 x 100 Kbps levels, 2 s segments
)

// axisValues enumerates the legal values per string axis, used by
// validation and by the CLI's axis listing.
var axisValues = map[string][]string{
	"channel": {ChannelStatic, ChannelCyclic, ChannelPedestrian, ChannelVehicular},
	"churn":   {ChurnNone, ChurnSteady, ChurnFlash, ChurnSoak},
	"faults":  {FaultNone, FaultLoss10, FaultLoss30, FaultLoss50, FaultBlackout},
	"mix":     {MixFLARE, MixFESTIVE, MixGOOGLE, MixAVIS, MixBBA, MixMPC, MixFLAREFESTIVE},
	"ladder":  {LadderSim, LadderTestbed, LadderFine},
}

// Axes is one point in the scenario space. The zero value of each field
// selects that axis's default (static channel, no churn, no faults,
// FLARE, the sim ladder, one cell).
type Axes struct {
	// Channel selects the link model.
	Channel string `json:"channel"`
	// Churn selects the arrival/departure profile.
	Churn string `json:"churn"`
	// Faults selects the control-plane fault profile.
	Faults string `json:"faults"`
	// Mix selects the scheme(s) running the video population.
	Mix string `json:"mix"`
	// Ladder selects the encoding ladder.
	Ladder string `json:"ladder"`
	// Cells is the number of independent cells (the paper computes
	// bitrates independently per cell; each gets its own control plane
	// and seed, results are pooled). 0 means 1.
	Cells int `json:"cells"`
	// Videos overrides the video population per cell (0 = the profile
	// default: 8, or 24 for flash crowds; churn profiles generate their
	// own population and reject an override).
	Videos int `json:"videos,omitempty"`
	// Load is the offered load for churn profiles, as a multiple of the
	// cell's floor-carrying capacity (0 = 1.0).
	Load float64 `json:"load,omitempty"`
}

// withDefaults fills zero fields with the axis defaults.
func (a Axes) withDefaults() Axes {
	if a.Channel == "" {
		a.Channel = ChannelStatic
	}
	if a.Churn == "" {
		a.Churn = ChurnNone
	}
	if a.Faults == "" {
		a.Faults = FaultNone
	}
	if a.Mix == "" {
		a.Mix = MixFLARE
	}
	if a.Ladder == "" {
		a.Ladder = defaultLadder(a.Churn)
	}
	if a.Cells <= 0 {
		a.Cells = 1
	}
	if a.Load == 0 {
		a.Load = 1
	}
	return a
}

// defaultLadder picks the ladder a churn profile expects: the capacity
// math of steady/soak churn is anchored at the testbed operating point
// (small floor capacity, quickly exceeded); everything else uses the
// Table III simulation ladder.
func defaultLadder(churn string) string {
	if churn == ChurnSteady || churn == ChurnSoak {
		return LadderTestbed
	}
	return LadderSim
}

// Validate checks every axis value (after defaulting) and the cross-axis
// constraints the engine imposes.
func (a Axes) Validate() error {
	a = a.withDefaults()
	for axis, v := range map[string]string{
		"channel": a.Channel, "churn": a.Churn, "faults": a.Faults,
		"mix": a.Mix, "ladder": a.Ladder,
	} {
		if !axisValueKnown(axis, v) {
			return fmt.Errorf("flaresuite: unknown %s axis value %q (known: %v)", axis, v, axisValues[axis])
		}
	}
	if a.Load < 0 {
		return fmt.Errorf("flaresuite: negative load %v", a.Load)
	}
	if a.Videos < 0 {
		return fmt.Errorf("flaresuite: negative videos %d", a.Videos)
	}
	if a.Faults != FaultNone && a.Mix != MixFLARE && a.Mix != MixFLAREFESTIVE {
		return fmt.Errorf("flaresuite: fault profile %q needs a FLARE control plane (mix %q has none)", a.Faults, a.Mix)
	}
	switch a.Churn {
	case ChurnSteady, ChurnSoak:
		if a.Channel != ChannelStatic {
			return fmt.Errorf("flaresuite: churn %q derives its offered load from the static floor capacity; channel %q is not supported", a.Churn, a.Channel)
		}
		if a.Mix == MixFLAREFESTIVE {
			return fmt.Errorf("flaresuite: churn %q is incompatible with mixed-scheme groups", a.Churn)
		}
		if a.Videos != 0 {
			return fmt.Errorf("flaresuite: churn %q generates its own population; videos=%d conflicts", a.Churn, a.Videos)
		}
	case ChurnFlash:
		if a.Mix == MixFLAREFESTIVE {
			return fmt.Errorf("flaresuite: churn %q is incompatible with mixed-scheme groups", a.Churn)
		}
	}
	return nil
}

func axisValueKnown(axis, v string) bool {
	for _, k := range axisValues[axis] {
		if k == v {
			return true
		}
	}
	return false
}

// Map renders the (defaulted) axes as a flat string map — the summary
// and filter representation. Keys are the Matrix axis names.
func (a Axes) Map() map[string]string {
	a = a.withDefaults()
	m := map[string]string{
		"channel": a.Channel,
		"churn":   a.Churn,
		"faults":  a.Faults,
		"mix":     a.Mix,
		"ladder":  a.Ladder,
		"cells":   strconv.Itoa(a.Cells),
	}
	if a.Videos != 0 {
		m["videos"] = strconv.Itoa(a.Videos)
	}
	if a.Load != 1 {
		m["load"] = strconv.FormatFloat(a.Load, 'g', -1, 64)
	}
	return m
}

// Set assigns one axis by name from its string form — the Matrix
// expansion and CLI -axis hook. Unknown keys and values are errors.
func (a *Axes) Set(key, value string) error {
	switch key {
	case "channel", "churn", "faults", "mix", "ladder":
		if !axisValueKnown(key, value) {
			return fmt.Errorf("flaresuite: unknown %s axis value %q (known: %v)", key, value, axisValues[key])
		}
		switch key {
		case "channel":
			a.Channel = value
		case "churn":
			a.Churn = value
		case "faults":
			a.Faults = value
		case "mix":
			a.Mix = value
		case "ladder":
			a.Ladder = value
		}
	case "cells", "videos":
		n, err := strconv.Atoi(value)
		if err != nil || n < 0 {
			return fmt.Errorf("flaresuite: axis %s needs a non-negative integer, got %q", key, value)
		}
		if key == "cells" {
			a.Cells = n
		} else {
			a.Videos = n
		}
	case "load":
		f, err := strconv.ParseFloat(value, 64)
		if err != nil || f < 0 {
			return fmt.Errorf("flaresuite: axis load needs a non-negative number, got %q", value)
		}
		a.Load = f
	default:
		return fmt.Errorf("flaresuite: unknown axis %q (known: channel, churn, faults, mix, ladder, cells, videos, load)", key)
	}
	return nil
}

// Matrix maps axis names to the values a scenario sweeps. The runner's
// -matrix mode expands the cross-product (axes in sorted-name order,
// values in declared order) into one scenario instance per point.
type Matrix map[string][]string

// expand returns every point of the cross-product applied over base,
// with a deterministic "key=value,key=value" suffix per point (empty
// for an empty matrix).
func (m Matrix) expand(base Axes) ([]Axes, []string, error) {
	if len(m) == 0 {
		return []Axes{base}, []string{""}, nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		if len(m[k]) == 0 {
			return nil, nil, fmt.Errorf("flaresuite: matrix axis %q has no values", k)
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	points := []Axes{base}
	labels := []string{""}
	for _, k := range keys {
		var nextPoints []Axes
		var nextLabels []string
		for i, p := range points {
			for _, v := range m[k] {
				q := p
				if err := q.Set(k, v); err != nil {
					return nil, nil, err
				}
				label := labels[i]
				if label != "" {
					label += ","
				}
				nextPoints = append(nextPoints, q)
				nextLabels = append(nextLabels, label+k+"="+v)
			}
		}
		points, labels = nextPoints, nextLabels
	}
	return points, labels, nil
}

// Size returns the number of points the matrix expands to.
func (m Matrix) Size() int {
	n := 1
	for _, vs := range m {
		n *= len(vs)
	}
	return n
}

// Scenario sizing constants: base durations per churn profile, the
// flash-crowd shape, and the steady/soak operating point (the Table I
// cell that ext-saturation sweeps).
const (
	baseDuration      = 600 * time.Second  // fixed-population profiles
	churnDuration     = 480 * time.Second  // steady churn
	soakDuration      = 3600 * time.Second // long-horizon soak
	churnITbs         = 2                  // steady/soak MCS operating point
	churnMeanDuration = 40 * time.Second   // mean churn session length
	flashVideos       = 24                 // flash-crowd default population
)

// BuildConfig compiles one axis point into a single-cell engine
// configuration at the given scale. The caller assigns Seed (and, for
// Cells > 1, builds one config per cell); everything else — channel
// model, population, ladder, churn schedule, fault injection, scheme
// wiring — is determined here, so a spec is reproducible from its axes
// alone.
func BuildConfig(a Axes, scale Scale) (cellsim.Config, error) {
	a = a.withDefaults()
	if err := a.Validate(); err != nil {
		return cellsim.Config{}, err
	}

	scheme, groups := mixGroups(a.Mix)
	cfg := cellsim.DefaultConfig(scheme)
	cfg.VideoGroups = groups
	cfg.NumVideo = 0
	if len(groups) == 0 {
		cfg.NumVideo = 8
	}

	switch a.Ladder {
	case LadderSim:
		cfg.Ladder = has.SimLadder()
		cfg.SegmentDuration = 10 * time.Second
	case LadderTestbed:
		cfg.Ladder = has.TestbedLadder()
		cfg.SegmentDuration = 2 * time.Second
	case LadderFine:
		cfg.Ladder = has.FineLadder()
		cfg.SegmentDuration = 2 * time.Second
	}

	cfg.Duration = scaled(baseDuration, scale)
	switch a.Channel {
	case ChannelStatic:
		cfg.Channel = cellsim.ChannelSpec{Kind: cellsim.ChannelStatic, StaticITbs: 12}
	case ChannelCyclic:
		period := 4 * time.Minute
		if scale.DurationFactor > 0 && scale.DurationFactor < 1 {
			// Keep several MCS cycles within a shortened run.
			period = time.Duration(float64(period) * scale.DurationFactor)
		}
		cfg.Channel = cellsim.ChannelSpec{
			Kind: cellsim.ChannelCyclic, CyclicMin: 1, CyclicMax: 12, CyclicPeriod: period,
		}
	case ChannelPedestrian, ChannelVehicular:
		n := cfg.NumVideo
		if len(groups) > 0 {
			n = 0
			for _, g := range groups {
				n += g.Count
			}
		}
		mob := lte.DefaultMobilityConfig(n)
		if a.Channel == ChannelPedestrian {
			mob.MinSpeed, mob.MaxSpeed = 0.8, 1.5
		}
		cfg.Channel = cellsim.ChannelSpec{Kind: cellsim.ChannelMobility, Mobility: mob}
	}

	switch a.Churn {
	case ChurnSteady, ChurnSoak:
		base := churnDuration
		if a.Churn == ChurnSoak {
			base = soakDuration
		}
		cfg.Duration = scaled(base, scale)
		cfg.Channel = cellsim.ChannelSpec{Kind: cellsim.ChannelStatic, StaticITbs: churnITbs}
		cfg.NumVideo = 0
		// Little's law: the interarrival gap that offers Load x the
		// floor-carrying capacity (sessions the RB budget holds at the
		// ladder's lowest encoding) at the churn mean duration.
		floorSessions := lte.CellRateBps(churnITbs) * cfg.Flare.CapacityMargin / cfg.Ladder.Min()
		gap := churnMeanDuration.Seconds() / (a.Load * floorSessions)
		cfg.Churn = cellsim.ChurnConfig{
			Enabled:          true,
			MeanInterarrival: time.Duration(gap * float64(time.Second)),
			MeanDuration:     churnMeanDuration,
			MaxSessions:      2048,
		}
	case ChurnFlash:
		n := a.Videos
		if n == 0 {
			n = flashVideos
		}
		cfg.NumVideo = n
		cfg.VideoArrivals = flashArrivals(n, cfg.Duration)
	case ChurnNone:
		if a.Videos != 0 {
			cfg.NumVideo = a.Videos
			if len(groups) > 0 {
				return cellsim.Config{}, fmt.Errorf("flaresuite: videos=%d conflicts with the fixed %q group sizes", a.Videos, a.Mix)
			}
		}
	}

	switch a.Faults {
	case FaultLoss10:
		cfg.ControlFaults = faults.Config{Seed: faultSeed, DropRate: 0.1}
	case FaultLoss30:
		cfg.ControlFaults = faults.Config{Seed: faultSeed, DropRate: 0.3}
	case FaultLoss50:
		cfg.ControlFaults = faults.Config{Seed: faultSeed, DropRate: 0.5}
	case FaultBlackout:
		third := cfg.Duration / 3
		cfg.ControlFaults = faults.Config{
			Seed:      faultSeed,
			Blackouts: []faults.Window{{From: third, To: 2 * third}},
		}
	}

	return cfg, nil
}

// faultSeed seeds the fault injectors independently of the run seeds,
// so a fault schedule is reproducible across runs and sweep points (the
// fault axis and ext-faults share it).
const faultSeed uint64 = 0xfa_17_5eed

// mixGroups maps the mix axis to a single scheme or mixed video groups.
// A single-scheme value is the scheme's command-line name.
func mixGroups(mix string) (cellsim.Scheme, []cellsim.FlowGroup) {
	if mix == MixFLAREFESTIVE {
		return cellsim.SchemeFLARE, []cellsim.FlowGroup{
			{Scheme: cellsim.SchemeFLARE, Count: 4},
			{Scheme: cellsim.SchemeFESTIVE, Count: 4},
		}
	}
	if scheme, err := cellsim.ParseScheme(mix); err == nil {
		return scheme, nil
	}
	return cellsim.SchemeFLARE, nil
}

// flashArrivals builds the flash-crowd schedule: a resident quarter of
// the population starts within the first two seconds; the rest arrive
// in one two-second burst a third of the way into the run — the
// "several new clients enter the system" path of Algorithm 1, at its
// sharpest.
func flashArrivals(n int, dur time.Duration) []time.Duration {
	arrivals := make([]time.Duration, n)
	residents := n / 4
	if residents == 0 {
		residents = 1
	}
	burst := dur / 3
	for i := range arrivals {
		if i < residents {
			// Residents trickle in over the first two seconds.
			arrivals[i] = time.Duration(i) * 2 * time.Second / time.Duration(residents)
		} else {
			// The crowd lands within a two-second window at burst time.
			k := i - residents
			crowd := n - residents
			arrivals[i] = burst + time.Duration(k)*2*time.Second/time.Duration(crowd)
		}
	}
	return arrivals
}

// FlashResidents returns how many leading clients of a flash-crowd
// population are residents (present before the burst) — the cohort the
// flash-crowd spec holds to the stall-free guarantee.
func FlashResidents(n int) int {
	r := n / 4
	if r == 0 {
		r = 1
	}
	return r
}
