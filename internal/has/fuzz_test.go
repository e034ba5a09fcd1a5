package has

import (
	"math"
	"testing"

	"github.com/flare-sim/flare/internal/metrics"
	"github.com/flare-sim/flare/internal/qoe"
	"github.com/flare-sim/flare/internal/sim"
)

func FuzzHighestAtMost(f *testing.F) {
	f.Add(0.0)
	f.Add(99_999.0)
	f.Add(100_000.0)
	f.Add(2_999_999.0)
	f.Add(3_000_000.0)
	f.Add(1e18)
	f.Add(-5.0)
	l := SimLadder()
	f.Fuzz(func(t *testing.T, bps float64) {
		i := l.HighestAtMost(bps)
		if i < 0 || i >= l.Len() {
			t.Fatalf("index %d out of range for %v", i, bps)
		}
		if i > 0 && l.Rate(i) > bps {
			t.Fatalf("rate %v above target %v at non-floor index", l.Rate(i), bps)
		}
		if i+1 < l.Len() && l.Rate(i+1) <= bps {
			t.Fatalf("higher rung %v also fits %v", l.Rate(i+1), bps)
		}
	})
}

func FuzzSegmentBytesAt(f *testing.F) {
	f.Add(0, 0, 0.0)
	f.Add(100, 3, 0.3)
	f.Add(-1, -1, 2.0)
	f.Add(1<<30, 99, 0.9)
	f.Fuzz(func(t *testing.T, idx, quality int, jitter float64) {
		m, err := NewMPD(SimLadder(), 2_000_000_000, 0) // 2 s
		if err != nil {
			t.Fatal(err)
		}
		m.SizeJitter = jitter
		sz := m.SegmentBytesAt(idx, quality)
		if sz <= 0 {
			t.Fatalf("segment size %d for idx=%d q=%d jitter=%v", sz, idx, quality, jitter)
		}
		base := m.SegmentBytes(quality)
		if jitter > 0 {
			lo, hi := int64(float64(base)*0.05), int64(float64(base)*1.95)
			if sz < lo || sz > hi {
				t.Fatalf("size %d outside clamp window around %d", sz, base)
			}
		} else if sz != base {
			t.Fatalf("CBR size %d != base %d", sz, base)
		}
	})
}

// FuzzTallyMatchesSlices holds the session tally to the arithmetic it
// replaced, to the bit: a random walk of quality levels over SimLadder
// or FineLadder (repeatPct of the steps stay put, so runs of equal rates
// and lone switches both occur) goes through qoe.Tally one segment at a
// time and, as the collected rates, through metrics.Mean,
// metrics.CountChanges and qoe.Score — the passes results were built
// from while players still logged every segment. Any session length,
// any stall time, and the never-started session's startup of -1.
func FuzzTallyMatchesSlices(f *testing.F) {
	for i, n := range []int{0, 1, 2, 3, 7, 64, 1000, 10_000} {
		f.Add(uint64(i+1), n, i%2 == 1, uint8(30*i), 0.25*float64(i), float64(i%3)-1)
	}
	f.Add(uint64(99), 500, true, uint8(100), 12.5, -1.0) // one rate throughout, never started
	f.Fuzz(func(t *testing.T, seed uint64, n int, fine bool, repeatPct uint8, stallSec, startupSec float64) {
		if n < 0 || n > 20_000 {
			t.Skip()
		}
		ladder := SimLadder()
		if fine {
			ladder = FineLadder()
		}
		rng := sim.NewRNG(seed)
		var tally qoe.Tally
		rates := make([]float64, 0, n)
		q := rng.Intn(ladder.Len())
		for i := 0; i < n; i++ {
			if rng.Intn(100) >= int(repeatPct) {
				q = rng.Intn(ladder.Len())
			}
			tally.Add(ladder.Rate(q))
			rates = append(rates, ladder.Rate(q))
		}
		if got := tally.Segments(); got != n {
			t.Fatalf("Segments() = %d, want %d", got, n)
		}
		if got, want := tally.AvgRateBps(), metrics.Mean(rates); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("AvgRateBps() = %v, metrics.Mean = %v", got, want)
		}
		if got, want := tally.Changes(), metrics.CountChanges(rates); got != want {
			t.Fatalf("Changes() = %d, metrics.CountChanges = %d", got, want)
		}
		if got, want := tally.Score(stallSec, startupSec), qoe.Score(rates, stallSec, startupSec); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Tally.Score = %v, qoe.Score = %v", got, want)
		}
	})
}
