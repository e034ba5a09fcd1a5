package abr

import "github.com/flare-sim/flare/internal/has"

// The classic BBA-0 operating points scaled to the 30 s buffers used in
// this reproduction.
const (
	// bbaReservoirSeconds is the buffer level below which the lowest
	// rate is selected.
	bbaReservoirSeconds float64 = 5
	// bbaCushionSeconds is the buffer level above which the highest
	// rate is selected; between reservoir and cushion the rate map is
	// linear.
	bbaCushionSeconds float64 = 22
)

// BBA implements the buffer-based rate adaptation of Huang et al.
// (SIGCOMM'14), the BBA-0 variant: the bitrate is a function of the
// playout buffer alone — no throughput estimation at all. It is included
// as an extension baseline beyond the paper's three comparison schemes:
// buffer-based adaptation is the other major client-side school, and it
// makes an instructive contrast with FLARE (both avoid throughput-
// estimation noise, by entirely different means).
type BBA struct {
	// BBA-0 keeps no state. This byte only gives each flow's adapter
	// an address of its own: pointers to a zero-size type may be equal.
	_ byte
}

var _ has.Adapter = (*BBA)(nil)

// NewBBA builds a BBA-0 adapter.
func NewBBA() *BBA { return &BBA{} }

// Name implements has.Adapter.
func (b *BBA) Name() string { return "bba" }

// OnSegmentComplete implements has.Adapter; BBA keeps no download state.
func (b *BBA) OnSegmentComplete(has.SegmentRecord) {}

// NextQuality implements has.Adapter: the rate map f(buffer) with the
// BBA-0 hysteresis — only move when the mapped rate crosses the next
// rung up (rate+ ) or falls below the current rung (rate-).
func (b *BBA) NextQuality(s has.State) int {
	if s.LastQuality < 0 {
		return 0
	}
	cur := s.Ladder.Clamp(s.LastQuality)
	mapped := b.mappedRate(s)
	switch {
	case cur+1 < s.Ladder.Len() && mapped >= s.Ladder.Rate(cur+1):
		return cur + 1
	case mapped < s.Ladder.Rate(cur):
		return s.Ladder.HighestAtMost(mapped)
	default:
		return cur
	}
}

// mappedRate is the linear buffer-to-rate map.
func (b *BBA) mappedRate(s has.State) float64 {
	minR, maxR := s.Ladder.Min(), s.Ladder.Max()
	switch {
	case s.BufferSeconds <= bbaReservoirSeconds:
		return minR
	case s.BufferSeconds >= bbaCushionSeconds:
		return maxR
	default:
		frac := (s.BufferSeconds - bbaReservoirSeconds) /
			(bbaCushionSeconds - bbaReservoirSeconds)
		return minR + frac*(maxR-minR)
	}
}
