package qoe

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQualityAnchorsAndMonotone(t *testing.T) {
	if got := Quality(100_000); got != 0 {
		t.Fatalf("Quality(100k) = %v, want 0", got)
	}
	if Quality(0) != 0 || Quality(-5) != 0 {
		t.Fatal("non-positive rates should score 0")
	}
	prev := math.Inf(-1)
	for _, r := range []float64{50_000, 100_000, 500_000, 1e6, 3e6} {
		q := Quality(r)
		if q <= prev {
			t.Fatalf("Quality not increasing at %v", r)
		}
		prev = q
	}
	// Doubling adds a constant (log scale).
	d1 := Quality(400_000) - Quality(200_000)
	d2 := Quality(800_000) - Quality(400_000)
	if math.Abs(d1-d2) > 1e-9 {
		t.Fatalf("log property violated: %v vs %v", d1, d2)
	}
}

func TestScoreComponents(t *testing.T) {
	steady := []float64{1e6, 1e6, 1e6, 1e6}
	base := Score(steady, 0, 0)
	if base <= 0 {
		t.Fatalf("steady 1 Mbps session scored %v", base)
	}
	// Switching hurts.
	flappy := []float64{1e6, 250_000, 1e6, 250_000}
	if s := Score(flappy, 0, 0); s >= base {
		t.Fatalf("flapping session scored %v >= steady %v", s, base)
	}
	// Rebuffering hurts.
	if s := Score(steady, 5, 0); s >= base {
		t.Fatalf("stalled session scored %v >= clean %v", s, base)
	}
	// Startup delay hurts less than the same rebuffering time.
	sStall := Score(steady, 3, 0)
	sStart := Score(steady, 0, 3)
	if sStart <= sStall {
		t.Fatalf("startup penalty %v should be milder than rebuffer %v", sStart, sStall)
	}
	// Negative startup (never played) is treated as zero.
	if s := Score(steady, 0, -1); s != base {
		t.Fatalf("negative startup changed score: %v vs %v", s, base)
	}
	if Score(nil, 10, 10) != 0 {
		t.Fatal("empty session should score 0")
	}
}

func TestScoreLengthNormalised(t *testing.T) {
	short := []float64{1e6, 1e6}
	long := make([]float64, 100)
	for i := range long {
		long[i] = 1e6
	}
	a, b := Score(short, 0, 0), Score(long, 0, 0)
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("per-segment normalisation broken: %v vs %v", a, b)
	}
}

func TestScoreHigherRateWinsProperty(t *testing.T) {
	check := func(nRaw uint8, lowRaw, hiRaw uint32) bool {
		n := int(nRaw)%20 + 1
		low := float64(lowRaw%2_000_000) + 100_000
		hi := low + float64(hiRaw%2_000_000) + 1
		mk := func(r float64) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = r
			}
			return xs
		}
		return Score(mk(hi), 0, 0) >= Score(mk(low), 0, 0)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
