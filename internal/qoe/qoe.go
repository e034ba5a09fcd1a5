// Package qoe implements the composite quality-of-experience score the
// ABR literature settled on (Yin et al., SIGCOMM'15): per-segment
// quality minus a switching penalty minus rebuffering and startup
// penalties. The paper reports its three ingredients separately (average
// bitrate, bitrate changes, buffer underflow time); the composite lets
// the extension experiments rank schemes on one axis.
package qoe

import "math"

// The score's weights, the conventional weighting: switching at parity
// with quality deltas, rebuffering at the quality value of a top-rate
// segment per second, startup at a third of that (weighted lower than
// rebuffering, per the literature).
const (
	// LambdaSwitch scales the |q(R_k) - q(R_{k-1})| switching penalty.
	LambdaSwitch float64 = 1
	// MuRebufferPerSec penalises each second of rebuffering.
	MuRebufferPerSec float64 = 3000
	// MuStartupPerSec penalises each second of startup delay.
	MuStartupPerSec float64 = 1000
)

// Quality maps a bitrate to quality points: log-scaled (doubling the
// rate adds a constant), anchored so 100 kbps = 0.
func Quality(rateBps float64) float64 {
	if rateBps <= 0 {
		return 0
	}
	return 1000 * math.Log(rateBps/1e5)
}

// Score computes the session QoE from the selected per-segment rates,
// the rebuffering time, and the startup delay (seconds; pass 0 for an
// unknown or never-started startup). The result is normalised per
// segment so sessions of different lengths compare.
func Score(ratesBps []float64, stallSec, startupSec float64) float64 {
	var quality, switching float64
	for i, r := range ratesBps {
		quality += Quality(r)
		if i > 0 {
			switching += math.Abs(Quality(r) - Quality(ratesBps[i-1]))
		}
	}
	return score(quality, switching, len(ratesBps), stallSec, startupSec)
}

// score folds the two per-segment sums and the session penalties into
// the per-segment score — the one copy of the formula, shared by the
// slice form and the Tally.
func score(quality, switching float64, segments int, stallSec, startupSec float64) float64 {
	if segments == 0 {
		return 0
	}
	if startupSec < 0 {
		startupSec = 0
	}
	total := quality - LambdaSwitch*switching -
		MuRebufferPerSec*stallSec - MuStartupPerSec*startupSec
	return total / float64(segments)
}

// Tally is a session's selected-rate history reduced to the running
// sums its results are made of: every figure a per-segment log yields
// by a left-to-right pass — the mean rate, the bitrate-change count,
// Score — the Tally yields from six words, whatever the session's
// length. Add performs, per segment, exactly the additions those passes
// perform in exactly their order, so the results are equal to the bit
// (metrics.Mean, metrics.CountChanges and Score over the collected
// rates are the reference; has.FuzzTallyMatchesSlices holds them
// together). The zero value is an empty session.
type Tally struct {
	segments   int
	changes    int
	sumRate    float64
	sumQuality float64
	sumSwitch  float64
	prevRate   float64
}

// Add accounts one completed segment encoded at rateBps.
func (t *Tally) Add(rateBps float64) {
	q := Quality(rateBps)
	t.sumQuality += q
	if t.segments > 0 {
		t.sumSwitch += math.Abs(q - Quality(t.prevRate))
		if rateBps != t.prevRate {
			t.changes++
		}
	}
	t.sumRate += rateBps
	t.prevRate = rateBps
	t.segments++
}

// Segments returns the number of segments added.
func (t Tally) Segments() int { return t.segments }

// Changes returns how many segments differed in rate from the one
// before — the paper's "number of bitrate changes".
func (t Tally) Changes() int { return t.changes }

// AvgRateBps returns the mean selected rate, 0 for an empty session.
func (t Tally) AvgRateBps() float64 {
	if t.segments == 0 {
		return 0
	}
	return t.sumRate / float64(t.segments)
}

// Score is the package-level Score of the rates added so far.
func (t Tally) Score(stallSec, startupSec float64) float64 {
	return score(t.sumQuality, t.sumSwitch, t.segments, stallSec, startupSec)
}
