package abr

import (
	"math"

	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/sim"
)

// FESTIVE's parameters. The paper's Table IV gives k=4, p=0.85 and
// alpha=12. The estimation window is 5 segments: with the multi-second
// segments of the FLARE scenarios, a longer window averages across
// several radio coherence times and hides exactly the LTE bandwidth
// variability whose mishandling the paper documents for FESTIVE.
const (
	// festiveK is the delayed-update factor: an up-switch from level L
	// is applied only after the target has stayed above the current
	// level for festiveK*(L+1) consecutive segments ("slower increase
	// for higher bitrates").
	festiveK = 4
	// festiveP is the bandwidth safety factor (target rate <= p *
	// estimate).
	festiveP float64 = 0.85
	// festiveAlpha weights efficiency against stability in the
	// combined score.
	festiveAlpha float64 = 12
	// festiveHistorySegments is the harmonic-mean estimation window.
	festiveHistorySegments = 5
	// festiveSwitchWindow is how many recent segments count toward the
	// stability (switch-count) score.
	festiveSwitchWindow = 10
	// festiveTargetBufferSeconds is the randomized-scheduling buffer
	// target; requests are paced so the buffer hovers around it.
	festiveTargetBufferSeconds float64 = 25
)

// Festive implements the FESTIVE rate-adaptation algorithm: harmonic-mean
// bandwidth estimation, gradual (one-level) switching with delayed
// up-switches, a stability-vs-efficiency score to suppress oscillation,
// and randomized chunk scheduling.
type Festive struct {
	hist *History
	rng  *sim.RNG

	upStreak int
	// lastQs holds the most recent festiveSwitchWindow+1 selected
	// levels, oldest first, for the switch count. Its backing array is
	// sized once in NewFestive and never re-allocated.
	lastQs    []int
	bufTarget float64
}

var (
	_ has.Adapter      = (*Festive)(nil)
	_ has.RequestPacer = (*Festive)(nil)
)

// NewFestive builds a FESTIVE adapter with its own RNG stream.
func NewFestive(rng *sim.RNG) *Festive {
	f := &Festive{
		hist:   NewHistory(festiveHistorySegments),
		rng:    rng.Split(),
		lastQs: make([]int, 0, festiveSwitchWindow+1),
	}
	f.resampleBufferTarget()
	return f
}

// Name implements has.Adapter.
func (f *Festive) Name() string { return "festive" }

// OnSegmentComplete implements has.Adapter.
func (f *Festive) OnSegmentComplete(rec has.SegmentRecord) {
	f.hist.Add(rec.ThroughputBps)
	if len(f.lastQs) == festiveSwitchWindow+1 {
		// Window full: drop the oldest by copying down, in place.
		f.lastQs = f.lastQs[:copy(f.lastQs, f.lastQs[1:])]
	}
	f.lastQs = append(f.lastQs, rec.Quality)
}

// recentSwitches counts level changes among the recent segments.
func (f *Festive) recentSwitches() int {
	n := 0
	for i := 1; i < len(f.lastQs); i++ {
		if f.lastQs[i] != f.lastQs[i-1] {
			n++
		}
	}
	return n
}

// NextQuality implements has.Adapter.
func (f *Festive) NextQuality(s has.State) int {
	if s.LastQuality < 0 || f.hist.Len() == 0 {
		return 0 // conservative start at the lowest rate
	}
	cur := s.Ladder.Clamp(s.LastQuality)
	w := f.hist.HarmonicMean(0)
	bref := s.Ladder.HighestAtMost(festiveP * w)

	// Gradual switching: down-switches are immediate (the estimate says
	// the current rate is unsustainable), up-switches are delayed.
	if bref < cur {
		f.upStreak = 0
		return cur - 1
	}
	candidate := cur
	if bref > cur {
		f.upStreak++
		if f.upStreak >= festiveK*(cur+1) {
			candidate = cur + 1
			f.upStreak = 0
		}
	} else {
		f.upStreak = 0
	}
	if candidate == cur {
		return cur
	}

	// Stability vs efficiency: up-switch only if the combined score of
	// the candidate beats staying put.
	if f.score(s.Ladder, candidate, cur, w) < f.score(s.Ladder, cur, cur, w) {
		return candidate
	}
	return cur
}

// score is FESTIVE's combined score: 2^(switch count) stability cost plus
// alpha times the bandwidth-mismatch efficiency cost. Lower is better.
// The efficiency term uses the symmetric ratio max(r/t, t/r) - 1 rather
// than the paper's |r/t - 1|: the latter saturates at 1 when the current
// rate is far below the fair share, which would let the stability term
// veto every up-switch forever. The ratio form preserves the intent
// (distance from the estimated fair share) without the saturation.
func (f *Festive) score(l has.Ladder, b, cur int, w float64) float64 {
	switches := f.recentSwitches()
	if b != cur {
		switches++
	}
	stability := math.Pow(2, float64(switches))
	eff := 0.0
	if target := festiveP * w; target > 0 {
		r := l.Rate(b)
		eff = math.Max(r/target, target/r) - 1
	}
	return stability + festiveAlpha*eff
}

// RequestDelay implements has.RequestPacer: FESTIVE's randomized chunk
// scheduling keeps the buffer near a jittered target to de-synchronise
// competing clients.
func (f *Festive) RequestDelay(s has.State) int64 {
	if s.BufferSeconds <= f.bufTarget {
		return 0
	}
	delay := int64((s.BufferSeconds - f.bufTarget) * lte.TTIsPerSecond)
	f.resampleBufferTarget()
	return delay
}

func (f *Festive) resampleBufferTarget() {
	f.bufTarget = festiveTargetBufferSeconds * f.rng.Uniform(0.85, 1.15)
}
