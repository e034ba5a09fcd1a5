package abr

import "github.com/flare-sim/flare/internal/has"

// The MPEG-DASH / Media Source demo player's settings: two bandwidth
// estimates from the long- and short-term histories, selecting the
// highest rate at or below googleP * min(long, short).
const (
	// googleP is the safety factor (the paper uses 0.85).
	googleP float64 = 0.85
	// googleLongSegments and googleShortSegments are the two
	// estimation windows.
	googleLongSegments  = 10
	googleShortSegments = 3
)

// Google implements the GOOGLE baseline. Unlike FESTIVE it has no
// gradual-switching or stability logic — it jumps straight to the
// estimated rate, which is why the paper observes aggressive selections
// and frequent rebuffering.
type Google struct {
	hist *History
}

var _ has.Adapter = (*Google)(nil)

// NewGoogle builds a GOOGLE adapter.
func NewGoogle() *Google {
	return &Google{hist: NewHistory(googleLongSegments)}
}

// Name implements has.Adapter.
func (g *Google) Name() string { return "google" }

// OnSegmentComplete implements has.Adapter.
func (g *Google) OnSegmentComplete(rec has.SegmentRecord) {
	g.hist.Add(rec.ThroughputBps)
}

// NextQuality implements has.Adapter.
func (g *Google) NextQuality(s has.State) int {
	if g.hist.Len() == 0 {
		return 0
	}
	long := g.hist.Mean(googleLongSegments)
	short := g.hist.Mean(googleShortSegments)
	est := long
	if short < est {
		est = short
	}
	return s.Ladder.HighestAtMost(googleP * est)
}
