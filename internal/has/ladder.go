// Package has implements the HTTP-adaptive-streaming substrate: bitrate
// ladders, the Media Presentation Description (MPD) model, and the client
// player state machine (buffering, playback, stalls, segment download
// pacing, and per-segment throughput sampling).
//
// The player is algorithm-agnostic: bitrate decisions are delegated to an
// Adapter, implemented by the client-side baselines (FESTIVE, GOOGLE), the
// AVIS client, and the FLARE plugin.
package has

import (
	"fmt"
)

// Ladder is an ascending list of available video bitrates in bits/s —
// the r_u vector of the paper.
type Ladder []float64

// NewLadderKbps builds a ladder from Kbps values.
func NewLadderKbps(kbps ...float64) Ladder {
	l := make(Ladder, len(kbps))
	for i, k := range kbps {
		l[i] = k * 1000
	}
	return l
}

// TestbedLadder returns the eight encodings used in the paper's femtocell
// experiments: 200, 310, 450, 790, 1100, 1320, 2280, 2750 Kbps.
func TestbedLadder() Ladder {
	return NewLadderKbps(200, 310, 450, 790, 1100, 1320, 2280, 2750)
}

// SimLadder returns the Table III simulation ladder:
// 100, 250, 500, 1000, 2000, 3000 Kbps.
func SimLadder() Ladder {
	return NewLadderKbps(100, 250, 500, 1000, 2000, 3000)
}

// FineLadder returns the dense ladder used in the paper's Figures 8-10:
// 100, 200, ..., 1200 Kbps.
func FineLadder() Ladder {
	kbps := make([]float64, 12)
	for i := range kbps {
		kbps[i] = float64((i + 1) * 100)
	}
	return NewLadderKbps(kbps...)
}

// Validate checks that the ladder is non-empty, positive, and strictly
// ascending.
func (l Ladder) Validate() error {
	if len(l) == 0 {
		return fmt.Errorf("has: empty ladder")
	}
	for i, r := range l {
		if r <= 0 {
			return fmt.Errorf("has: ladder rate %d is non-positive (%v)", i, r)
		}
		if i > 0 && r <= l[i-1] {
			return fmt.Errorf("has: ladder not strictly ascending at %d (%v <= %v)", i, r, l[i-1])
		}
	}
	return nil
}

// Len returns the number of encodings.
func (l Ladder) Len() int { return len(l) }

// Rate returns the bitrate at index i, clamping out-of-range indices.
func (l Ladder) Rate(i int) float64 {
	return l[l.Clamp(i)]
}

// Clamp limits an index to [0, Len-1]. It panics on an empty ladder.
func (l Ladder) Clamp(i int) int {
	if len(l) == 0 {
		panic("has: Clamp on empty ladder")
	}
	if i < 0 {
		return 0
	}
	if i >= len(l) {
		return len(l) - 1
	}
	return i
}

// HighestAtMost returns the index of the highest rate <= bps, or 0 when
// every rate exceeds bps (a player must always pick something).
//
// The binary search is written out rather than using sort.Search: the
// closure sort.Search takes escapes to the heap, and this sits inside
// the MCKP solve (core.VideoFlow.MaxLevel), which TestInProcessRoundAllocs
// pins at zero allocations.
func (l Ladder) HighestAtMost(bps float64) int {
	// Find the first index with rate > bps.
	lo, hi := 0, len(l)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l[mid] > bps {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// Min returns the lowest rate.
func (l Ladder) Min() float64 { return l[0] }

// Max returns the highest rate.
func (l Ladder) Max() float64 { return l[len(l)-1] }

// Clone returns a copy of the ladder.
func (l Ladder) Clone() Ladder {
	out := make(Ladder, len(l))
	copy(out, l)
	return out
}
