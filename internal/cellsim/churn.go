package cellsim

import (
	"fmt"
	"math"
	"time"

	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/sim"
)

// churnSalt decorrelates the churn generator's RNG stream from the
// run's primary stream (both derive from Config.Seed).
const churnSalt = 0x243f6a8885a308d3

// paretoShape is the session-duration tail exponent α: a heavy tail
// whose mean still exists (α > 1).
const paretoShape = 1.5

// ChurnConfig generates a session-churn schedule: video clients arrive
// as a Poisson process and stay for heavy-tailed (Pareto) durations —
// the classical VoD workload shape, and the proving ground for the
// admission/downgrade saturation machinery (a fixed population can
// only saturate a cell transiently; churn sustains any offered load).
//
// When Enabled, the generator expands into VideoArrivals /
// VideoDepartures / NumVideo at Sim build time, deterministically from
// Config.Seed, so a churn run replays byte-identically like any other.
type ChurnConfig struct {
	// Enabled turns the generator on. It is incompatible with explicit
	// VideoArrivals/VideoDepartures schedules and with VideoGroups.
	Enabled bool
	// MeanInterarrival is the mean gap between session arrivals (the
	// Poisson process's 1/λ). Required when Enabled.
	MeanInterarrival time.Duration
	// MeanDuration is the mean session length. Required when Enabled.
	MeanDuration time.Duration
	// MaxSessions bounds the generated population (0 = default 256) so
	// a misconfigured load cannot allocate an unbounded cell.
	MaxSessions int
}

// OfferedChurn returns the churn generator that offers load times the
// cell's floor-carrying capacity — the sessions its RB budget, scaled
// by Flare.CapacityMargin, holds at the ladder's lowest encoding on the
// static channel at Channel.StaticITbs — with sessions of meanDuration:
// Little's law turns the pair into the Poisson interarrival gap. The
// estimate needs a fixed link, so cfg's channel must be static.
func (cfg *Config) OfferedChurn(load float64, meanDuration time.Duration) ChurnConfig {
	floorSessions := lte.CellRateBps(cfg.Channel.StaticITbs) * cfg.Flare.CapacityMargin / cfg.Ladder.Min()
	gap := meanDuration.Seconds() / (load * floorSessions)
	return ChurnConfig{
		Enabled:          true,
		MeanInterarrival: time.Duration(gap * float64(time.Second)),
		MeanDuration:     meanDuration,
	}
}

// validate checks the generator parameters (only when enabled).
func (c *ChurnConfig) validate() error {
	if !c.Enabled {
		return nil
	}
	if c.MeanInterarrival <= 0 {
		return fmt.Errorf("cellsim: churn MeanInterarrival must be positive, got %v", c.MeanInterarrival)
	}
	if c.MeanDuration <= 0 {
		return fmt.Errorf("cellsim: churn MeanDuration must be positive, got %v", c.MeanDuration)
	}
	if c.MaxSessions < 0 {
		return fmt.Errorf("cellsim: negative churn MaxSessions %d", c.MaxSessions)
	}
	return nil
}

func (c *ChurnConfig) maxSessions() int {
	if c.MaxSessions == 0 {
		return 256
	}
	return c.MaxSessions
}

// expandChurn materialises the churn schedule into the explicit
// VideoArrivals/VideoDepartures/NumVideo fields, before Validate sees
// them. A disabled generator is a no-op.
func (cfg *Config) expandChurn() error {
	if !cfg.Churn.Enabled {
		return nil
	}
	if err := cfg.Churn.validate(); err != nil {
		return err
	}
	if len(cfg.VideoArrivals) > 0 || len(cfg.VideoDepartures) > 0 {
		return fmt.Errorf("cellsim: churn generator conflicts with explicit VideoArrivals/VideoDepartures")
	}
	if len(cfg.VideoGroups) > 0 {
		return fmt.Errorf("cellsim: churn generator does not support VideoGroups")
	}
	if cfg.Duration <= 0 {
		return fmt.Errorf("cellsim: churn needs a positive Duration, got %v", cfg.Duration)
	}

	rng := sim.NewRNG(cfg.Seed ^ churnSalt)
	horizon := cfg.Duration.Seconds()
	meanGap := cfg.Churn.MeanInterarrival.Seconds()
	meanDur := cfg.Churn.MeanDuration.Seconds()
	alpha := float64(paretoShape)
	// Pareto with the requested mean: xm*α/(α-1) = mean ⇒ scale xm.
	xm := meanDur * (alpha - 1) / alpha

	var arrivals, departures []time.Duration
	t := 0.0
	for len(arrivals) < cfg.Churn.maxSessions() {
		t += rng.Exp(meanGap)
		if t >= horizon {
			break
		}
		// Inverse-CDF Pareto draw; 1-U keeps the argument in (0,1].
		dur := xm * math.Pow(1-rng.Float64(), -1/alpha)
		depart := t + dur
		arrivals = append(arrivals, time.Duration(t*float64(time.Second)))
		if depart >= horizon {
			// Outlives the run: stream to the end (the 0 convention).
			departures = append(departures, 0)
		} else {
			departures = append(departures, time.Duration(depart*float64(time.Second)))
		}
	}
	cfg.NumVideo = len(arrivals)
	cfg.VideoArrivals = arrivals
	cfg.VideoDepartures = departures
	return nil
}
