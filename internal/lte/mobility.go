package lte

import (
	"fmt"
	"math"

	"github.com/flare-sim/flare/internal/sim"
)

// The paper's Table III mobile cell: a 2000 m x 2000 m area with the
// eNodeB at the centre.
const (
	// mobilityAreaMeters is the side length of the square simulation
	// area.
	mobilityAreaMeters float64 = 2000
	// mobilityTxPowerDBm is the eNodeB transmit power: 30 dBm, the
	// default TxPower of ns-3's LteEnbPhy, which the paper's 2000 m
	// ns-3 scenario runs with. (The JL-620's 20 dBm applies only to
	// the indoor femtocell testbed.)
	mobilityTxPowerDBm float64 = 30
	// mobilityNoiseDBm is the receiver noise floor over 10 MHz.
	mobilityNoiseDBm float64 = -95
	// mobilityShadowingStdevDB is the log-normal shadowing standard
	// deviation.
	mobilityShadowingStdevDB float64 = 6
	// mobilityShadowingCorrDistance is the decorrelation distance in
	// meters for the shadowing process.
	mobilityShadowingCorrDistance float64 = 50
	// mobilityPositionStepTTIs is how often UE positions and SINR are
	// updated (100 ms).
	mobilityPositionStepTTIs int64 = 100
	// mobilityWaypointMargin keeps waypoints (and initial positions)
	// inside the central (1-2*margin) fraction of the area, modelling
	// UEs that stay within radio coverage rather than roaming to the
	// dead corner of the cell.
	mobilityWaypointMargin float64 = 0.25
)

// MobilityConfig parameterises the random-waypoint mobility channel used
// for the paper's mobile (vehicular) scenarios.
type MobilityConfig struct {
	// NumUEs is the number of UEs to model.
	NumUEs int
	// MinSpeed and MaxSpeed bound each waypoint leg's speed in m/s.
	// The paper's mobile scenario puts UEs in vehicles; 10-20 m/s
	// (36-72 km/h) is the usual vehicular setting.
	MinSpeed, MaxSpeed float64
	// FadingStdevDB is the standard deviation of the multipath fading
	// process in dB.
	FadingStdevDB float64
	// FadingTauSeconds is the fading coherence time: the fading term
	// evolves as an AR(1) process with this decorrelation constant, so
	// fades persist across consecutive segments instead of averaging
	// out. 0 makes fading independent per position step.
	FadingTauSeconds float64
}

// DefaultMobilityConfig returns the paper's Table III mobile settings.
func DefaultMobilityConfig(numUEs int) MobilityConfig {
	return MobilityConfig{
		NumUEs:           numUEs,
		MinSpeed:         10,
		MaxSpeed:         20,
		FadingStdevDB:    2,
		FadingTauSeconds: 2,
	}
}

type ueState struct {
	x, y       float64
	destX      float64
	destY      float64
	speed      float64 // m/s
	shadowDB   float64
	fadeDB     float64
	lastX      float64
	lastY      float64
	currentITb int
}

// MobilityChannel is a random-waypoint channel: UEs move between uniform
// random waypoints; link quality follows the 3GPP macro path-loss model
// (128.1 + 37.6 log10 d_km) with spatially correlated log-normal
// shadowing and block fading, mapped to iTbs through the SINR-to-MCS
// curve in ITbsForSINR.
type MobilityChannel struct {
	cfg     MobilityConfig
	rng     *sim.RNG
	ues     []ueState
	lastTTI int64
}

var _ Channel = (*MobilityChannel)(nil)

// NewMobilityChannel builds a mobility channel with its own RNG stream
// derived from rng.
func NewMobilityChannel(cfg MobilityConfig, rng *sim.RNG) (*MobilityChannel, error) {
	if cfg.NumUEs <= 0 {
		return nil, fmt.Errorf("lte: mobility channel needs at least one UE, got %d", cfg.NumUEs)
	}
	if cfg.MinSpeed <= 0 || cfg.MaxSpeed < cfg.MinSpeed {
		return nil, fmt.Errorf("lte: invalid speed range [%v, %v]", cfg.MinSpeed, cfg.MaxSpeed)
	}
	c := &MobilityChannel{cfg: cfg, rng: rng.Split(), lastTTI: -1}
	c.ues = make([]ueState, cfg.NumUEs)
	for i := range c.ues {
		u := &c.ues[i]
		u.x = c.sampleCoord()
		u.y = c.sampleCoord()
		u.lastX, u.lastY = u.x, u.y
		u.shadowDB = c.rng.Norm(0, mobilityShadowingStdevDB)
		c.pickWaypoint(u)
		c.refreshITbs(u)
	}
	return c, nil
}

func (c *MobilityChannel) sampleCoord() float64 {
	const m = mobilityWaypointMargin * mobilityAreaMeters
	return c.rng.Uniform(m, mobilityAreaMeters-m)
}

func (c *MobilityChannel) pickWaypoint(u *ueState) {
	u.destX = c.sampleCoord()
	u.destY = c.sampleCoord()
	u.speed = c.rng.Uniform(c.cfg.MinSpeed, c.cfg.MaxSpeed)
}

// Update implements Channel. Positions and SINR are refreshed every
// mobilityPositionStepTTIs; intermediate TTIs reuse the last computed iTbs
// (block fading).
func (c *MobilityChannel) Update(tti int64) {
	const step = mobilityPositionStepTTIs
	cur := tti / step
	if c.lastTTI >= 0 && cur == c.lastTTI/step && tti != 0 {
		c.lastTTI = tti
		return
	}
	dt := float64(step) / TTIsPerSecond // seconds per position step
	for i := range c.ues {
		u := &c.ues[i]
		c.moveUE(u, dt)
		c.updateShadowing(u)
		c.refreshITbs(u)
	}
	c.lastTTI = tti
}

func (c *MobilityChannel) moveUE(u *ueState, dt float64) {
	remaining := u.speed * dt
	for remaining > 0 {
		dx, dy := u.destX-u.x, u.destY-u.y
		dist := math.Hypot(dx, dy)
		if dist <= remaining {
			u.x, u.y = u.destX, u.destY
			remaining -= dist
			c.pickWaypoint(u)
			continue
		}
		u.x += dx / dist * remaining
		u.y += dy / dist * remaining
		remaining = 0
	}
}

// updateShadowing evolves the log-normal shadowing as a Gudmundson
// spatially correlated process: correlation decays exponentially with the
// distance moved since the last update.
func (c *MobilityChannel) updateShadowing(u *ueState) {
	moved := math.Hypot(u.x-u.lastX, u.y-u.lastY)
	u.lastX, u.lastY = u.x, u.y
	rho := math.Exp(-moved / mobilityShadowingCorrDistance)
	u.shadowDB = rho*u.shadowDB + math.Sqrt(1-rho*rho)*c.rng.Norm(0, mobilityShadowingStdevDB)
}

func (c *MobilityChannel) refreshITbs(u *ueState) {
	const half = mobilityAreaMeters / 2
	distKm := math.Hypot(u.x-half, u.y-half) / 1000
	if distKm < 0.01 {
		distKm = 0.01 // path-loss model validity floor (10 m)
	}
	pathLossDB := 128.1 + 37.6*math.Log10(distKm)
	if sigma := c.cfg.FadingStdevDB; sigma > 0 {
		if tau := c.cfg.FadingTauSeconds; tau > 0 {
			// AR(1) fading with coherence time tau.
			dt := float64(mobilityPositionStepTTIs) / TTIsPerSecond
			rho := math.Exp(-dt / tau)
			u.fadeDB = rho*u.fadeDB + math.Sqrt(1-rho*rho)*c.rng.Norm(0, sigma)
		} else {
			u.fadeDB = c.rng.Norm(0, sigma)
		}
	} else {
		u.fadeDB = 0
	}
	sinr := mobilityTxPowerDBm - pathLossDB - mobilityNoiseDBm + u.shadowDB + u.fadeDB
	u.currentITb = ITbsForSINR(sinr)
}

// CatchUp implements ChannelCatchUp. The random walk is stateful — each
// position-step boundary consumes RNG draws — so fast-forwarding must
// replay every boundary the naive loop would have crossed in
// (fromTTI, toTTI) exclusive. Intermediate non-boundary TTIs only
// advance lastTTI, which the boundary replays subsume.
func (c *MobilityChannel) CatchUp(fromTTI, toTTI int64) {
	const step = mobilityPositionStepTTIs
	for b := (fromTTI/step + 1) * step; b < toTTI; b += step {
		c.Update(b)
	}
}

// ITbs implements Channel.
func (c *MobilityChannel) ITbs(ue int) int { return c.ues[ue].currentITb }

// NumUEs implements Channel.
func (c *MobilityChannel) NumUEs() int { return len(c.ues) }

// Position returns the current coordinates of a UE, for tests and
// visualisation.
func (c *MobilityChannel) Position(ue int) (x, y float64) {
	return c.ues[ue].x, c.ues[ue].y
}
