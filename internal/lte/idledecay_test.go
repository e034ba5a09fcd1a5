package lte

import (
	"math"
	"testing"

	"github.com/flare-sim/flare/internal/sim"
)

// floatDecay is the step idleDecay replaces, as tick writes it with
// nothing served: a += (instant - a) / N at instant = 0.
func floatDecay(a, n float64) float64 {
	instant := 0.0
	a += (instant - a) / n
	return a
}

// TestIdleDecayMatchesFloat holds the integer idle decay to the IEEE
// result over the whole low end of the subnormal range — where the tie
// and fixed-point cases live — random mantissas across the rest of it,
// and the range's two ends, for both averaging windows.
func TestIdleDecayMatchesFloat(t *testing.T) {
	for _, n := range []uint64{avgTputTTIs, fastTputTTIs} {
		check := func(m uint64) {
			a := math.Float64frombits(m)
			got, want := idleDecay(a, n), floatDecay(a, float64(n))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("N=%d mantissa %#x: integer decay %#x, float decay %#x",
					n, m, math.Float64bits(got), math.Float64bits(want))
			}
		}
		exhaustive := uint64(1) << 21
		if testing.Short() {
			exhaustive = 1 << 16
		}
		for m := uint64(0); m < exhaustive; m++ {
			check(m)
		}
		rng := sim.NewRNG(n)
		for i := 0; i < 1<<20; i++ {
			check(rng.Uint64() >> 12) // 52 random mantissa bits, exponent 0
		}
		check(1<<52 - 1) // the largest subnormal
	}
}

// TestTickTakesIntegerPathPerAverage covers the ~45 simulated seconds in
// which the fast average is already subnormal and the slow one is not:
// from a served bearer down to its fixed point, every idle tick must
// leave both averages where the float expression would.
func TestTickTakesIntegerPathPerAverage(t *testing.T) {
	b := &Bearer{}
	b.tick(12_000)
	mixed := 0
	for i := 0; i < 100_000; i++ {
		wantAvg := floatDecay(b.avgTput, avgTputTTIs)
		wantFast := floatDecay(b.fastTput, fastTputTTIs)
		if b.fastTput < minNormalTput && b.avgTput >= minNormalTput {
			mixed++
		}
		b.tick(0)
		if math.Float64bits(b.avgTput) != math.Float64bits(wantAvg) ||
			math.Float64bits(b.fastTput) != math.Float64bits(wantFast) {
			t.Fatalf("idle tick %d: avg %#x fast %#x, float expression gives %#x %#x", i,
				math.Float64bits(b.avgTput), math.Float64bits(b.fastTput),
				math.Float64bits(wantAvg), math.Float64bits(wantFast))
		}
	}
	if mixed < 30_000 {
		t.Fatalf("only %d ticks had the fast average subnormal and the slow one normal; expected about 45 000", mixed)
	}
	// A served tick on subnormal averages takes the float expression.
	b.tick(8_000)
	if want := (8_000 * TTIsPerSecond) / float64(avgTputTTIs); math.Abs(b.avgTput-want) > 1e-9 {
		t.Fatalf("served tick from a subnormal average gave %g, want %g", b.avgTput, want)
	}
}
