package flaresuite

import (
	"time"

	"github.com/flare-sim/flare/internal/cellsim"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/lte"
)

// TestbedConfig reproduces the femtocell scenarios of Section IV-A:
// three video clients plus one iperf data flow, the 8-level testbed
// ladder, 2 s segments, and iTbs 2 (static) or a 1->12->1 cycle over
// four minutes (dynamic).
func TestbedConfig(scheme cellsim.Scheme, dynamic bool, scale Scale) cellsim.Config {
	cfg := cellsim.DefaultConfig(scheme)
	cfg.Duration = scaled(600*time.Second, scale)
	cfg.NumVideo = 3
	cfg.NumData = 1
	cfg.Ladder = has.TestbedLadder()
	cfg.SegmentDuration = 2 * time.Second
	// The testbed's video/data balance point: our idealised TBS mapping
	// lacks the femtocell's PHY/MAC overheads, which made video RBs
	// effectively costlier in the paper's testbed; alpha=4 (the top of
	// the paper's Figure 11 sweep) restores the Table I/II operating
	// point where the data flow lands between GOOGLE's and FESTIVE's.
	cfg.Flare.Alpha = 4
	if dynamic {
		cfg.Duration = scaled(600*time.Second, scale)
		cfg.Channel = cellsim.ChannelSpec{
			Kind: cellsim.ChannelCyclic, CyclicMin: 1, CyclicMax: 12,
			CyclicPeriod: 4 * time.Minute,
		}
		if scale.DurationFactor < 1 {
			// Keep several MCS cycles within the shortened run.
			cfg.Channel.CyclicPeriod = time.Duration(float64(4*time.Minute) * scale.DurationFactor)
		}
	} else {
		cfg.Channel = cellsim.ChannelSpec{Kind: cellsim.ChannelStatic, StaticITbs: 2}
	}
	// GOOGLE's request threshold: 15 s in the static scenario, raised
	// to 40 s in the dynamic one (the paper's anti-rebuffering tweak).
	if scheme == cellsim.SchemeGOOGLE {
		if dynamic {
			cfg.Player.MaxBufferSeconds = 40
		} else {
			cfg.Player.MaxBufferSeconds = 15
		}
	}
	return cfg
}

// SimConfig reproduces the ns-3 scenarios of Section IV-B: 8 video
// clients at random positions in a 2000 m cell, Table III ladder, 10 s
// segments. "Static" places nearly stationary UEs (distinct positions,
// so per-client link qualities differ as in ns-3); "mobile" uses the
// vehicular random-waypoint speeds.
func SimConfig(scheme cellsim.Scheme, mobile bool, scale Scale) cellsim.Config {
	cfg := cellsim.DefaultConfig(scheme)
	cfg.Duration = scaled(1200*time.Second, scale)
	cfg.NumVideo = 8
	cfg.NumData = 0
	mob := lte.DefaultMobilityConfig(cfg.NumVideo)
	if !mobile {
		// Stationary UEs: distinct but fixed positions and frozen
		// shadowing. Fast fading stays on — Table III drives fading
		// from traces even for static UEs, and that variability is
		// what stresses the client-side estimators.
		mob.MinSpeed, mob.MaxSpeed = 0.01, 0.02
		mob.FadingStdevDB = 4
		mob.FadingTauSeconds = 3
	}
	cfg.Channel = cellsim.ChannelSpec{Kind: cellsim.ChannelMobility, Mobility: mob}
	return cfg
}

// pooled aggregates a per-client metric across runs (the paper's "over
// 160 clients" pooling: 20 runs x 8 clients).
func pooled(results []*cellsim.Result, metric func(*cellsim.Result) []float64) []float64 {
	var out []float64
	for _, r := range results {
		out = append(out, metric(r)...)
	}
	return out
}
