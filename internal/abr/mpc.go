package abr

import (
	"math"

	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/qoe"
)

// The standard RobustMPC settings. The objective's weights are qoe's:
// the switch penalty qoe.LambdaSwitch and the rebuffering penalty
// qoe.MuRebufferPerSec (~3x the top utility per second of stall).
const (
	// mpcHorizon is the look-ahead in segments.
	mpcHorizon = 5
	// mpcHistorySegments is the throughput-prediction window.
	mpcHistorySegments = 5
)

// MPCConfig parameterises the model-predictive-control adapter.
type MPCConfig struct {
	// SegmentSeconds is the segment play length (needed to predict
	// download times and rebuffering).
	SegmentSeconds float64
}

// DefaultMPCConfig returns the settings for 10 s segments.
func DefaultMPCConfig() MPCConfig {
	return MPCConfig{SegmentSeconds: 10}
}

// MPC implements the control-theoretic adapter of Yin et al.
// (SIGCOMM'15), which the paper cites as the state of the art in
// client-side adaptation: choose the bitrate sequence over a short
// horizon that maximises a QoE objective (bitrate utility − switching
// penalty − rebuffering penalty) under a throughput prediction, then
// apply only the first decision. The throughput prediction is discounted
// by the maximum recent relative prediction error (the RobustMPC
// variant). Included as an extension baseline.
type MPC struct {
	cfg  MPCConfig
	hist *History

	lastPrediction float64
	maxErr         float64
}

var _ has.Adapter = (*MPC)(nil)

// NewMPC builds an MPC adapter.
func NewMPC(cfg MPCConfig) *MPC {
	if cfg.SegmentSeconds <= 0 {
		cfg.SegmentSeconds = DefaultMPCConfig().SegmentSeconds
	}
	return &MPC{cfg: cfg, hist: NewHistory(mpcHistorySegments)}
}

// Name implements has.Adapter.
func (m *MPC) Name() string { return "mpc" }

// OnSegmentComplete implements has.Adapter: record the sample and track
// the prediction error for the robust discount.
func (m *MPC) OnSegmentComplete(rec has.SegmentRecord) {
	if m.lastPrediction > 0 {
		err := math.Abs(m.lastPrediction-rec.ThroughputBps) / m.lastPrediction
		// Decay the error envelope so ancient mispredictions fade.
		m.maxErr = math.Max(0.8*m.maxErr, err)
	}
	m.hist.Add(rec.ThroughputBps)
}

// NextQuality implements has.Adapter: exhaustive search over the
// gradual-path space of bitrate sequences (each step moves at most one
// level, the MPC fast-table trick), scoring each by predicted QoE.
func (m *MPC) NextQuality(s has.State) int {
	if s.LastQuality < 0 || m.hist.Len() == 0 {
		return 0
	}
	pred := m.hist.HarmonicMean(0)
	if m.maxErr > 0 {
		pred /= 1 + m.maxErr
	}
	m.lastPrediction = pred
	if pred <= 0 {
		return 0
	}

	cur := s.Ladder.Clamp(s.LastQuality)
	bestFirst, bestScore := cur, math.Inf(-1)
	// The first step — the only decision actually applied — searches
	// the whole ladder (an emergency drop must be reachable in one
	// step); the remaining horizon steps move at most one level, which
	// prunes the search the way MPC's fast-table variant does.
	paths := 1
	for i := 1; i < mpcHorizon; i++ {
		paths *= 3
	}
	for first := 0; first < s.Ladder.Len(); first++ {
		for p := 0; p < paths; p++ {
			score := m.scorePath(s, cur, first, pred, p)
			if score > bestScore {
				bestScore, bestFirst = score, first
			}
		}
	}
	return bestFirst
}

// scorePath simulates one path — a first level plus delta-encoded
// follow-ups — and returns its QoE score.
func (m *MPC) scorePath(s has.State, cur, first int, pred float64, path int) float64 {
	buffer := s.BufferSeconds
	level := first
	prev := cur
	score := 0.0
	for k := 0; k < mpcHorizon; k++ {
		if k > 0 {
			delta := path%3 - 1
			path /= 3
			level = s.Ladder.Clamp(level + delta)
		}
		rate := s.Ladder.Rate(level)
		dl := rate * m.cfg.SegmentSeconds / pred // download seconds
		rebuf := math.Max(0, dl-buffer)
		buffer = math.Max(0, buffer-dl) + m.cfg.SegmentSeconds

		score += qoe.Quality(rate) -
			qoe.LambdaSwitch*math.Abs(qoe.Quality(rate)-qoe.Quality(s.Ladder.Rate(prev))) -
			qoe.MuRebufferPerSec*rebuf
		prev = level
	}
	return score
}
