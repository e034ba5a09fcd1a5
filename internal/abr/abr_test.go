package abr

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/sim"
)

func state(ladder has.Ladder, lastQ int, buffer float64) has.State {
	return has.State{
		Ladder:        ladder,
		LastQuality:   lastQ,
		BufferSeconds: buffer,
		Playing:       true,
	}
}

func rec(quality int, tputBps float64) has.SegmentRecord {
	return has.SegmentRecord{Quality: quality, ThroughputBps: tputBps}
}

// --- History ---

func TestHistoryRing(t *testing.T) {
	h := NewHistory(3)
	if h.Len() != 0 || h.Last() != 0 {
		t.Fatal("empty history wrong")
	}
	h.Add(1)
	h.Add(2)
	if h.Len() != 2 || h.Last() != 2 {
		t.Fatalf("len=%d last=%v", h.Len(), h.Last())
	}
	h.Add(3)
	h.Add(4) // evicts 1
	if h.Len() != 3 {
		t.Fatalf("len=%d, want 3", h.Len())
	}
	if got := h.Mean(0); math.Abs(got-3) > 1e-12 {
		t.Fatalf("mean=%v, want 3 (of 2,3,4)", got)
	}
	if h.Last() != 4 {
		t.Fatalf("last=%v", h.Last())
	}
}

func TestHistoryRecentWindow(t *testing.T) {
	h := NewHistory(10)
	for i := 1; i <= 10; i++ {
		h.Add(float64(i))
	}
	if got := h.Mean(2); math.Abs(got-9.5) > 1e-12 {
		t.Fatalf("Mean(2)=%v, want 9.5", got)
	}
	if got := h.Mean(100); math.Abs(got-5.5) > 1e-12 {
		t.Fatalf("Mean(100)=%v, want 5.5", got)
	}
}

func TestHistoryHarmonicMean(t *testing.T) {
	h := NewHistory(5)
	h.Add(1)
	h.Add(2)
	h.Add(4)
	want := 3.0 / (1 + 0.5 + 0.25)
	if got := h.HarmonicMean(0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("harmonic=%v, want %v", got, want)
	}
}

func TestHistoryClampsCapacity(t *testing.T) {
	h := NewHistory(0) // clamped to 1
	h.Add(5)
	h.Add(7)
	if h.Len() != 1 || h.Last() != 7 {
		t.Fatalf("len=%d last=%v", h.Len(), h.Last())
	}
}

// --- FESTIVE ---

func newTestFestive() *Festive {
	return NewFestive(sim.NewRNG(1))
}

func TestFestiveStartsLowest(t *testing.T) {
	f := newTestFestive()
	if got := f.NextQuality(state(has.SimLadder(), -1, 0)); got != 0 {
		t.Fatalf("first pick = %d, want 0", got)
	}
}

func TestFestiveDelayedUpSwitch(t *testing.T) {
	f := newTestFestive()
	l := has.SimLadder()
	// Abundant bandwidth: 10 Mbps estimates. From level 0, K*(0+1)=4
	// consecutive recommendations are needed before stepping to 1.
	cur := 0
	ups := 0
	for seg := 0; seg < 6; seg++ {
		f.OnSegmentComplete(rec(cur, 10e6))
		q := f.NextQuality(state(l, cur, 20))
		if q > cur+1 {
			t.Fatalf("FESTIVE jumped more than one level: %d -> %d", cur, q)
		}
		if q == cur+1 {
			ups++
			if seg < 3 {
				t.Fatalf("up-switch after only %d segments, want >= 4", seg+1)
			}
		}
		cur = q
	}
	if ups == 0 {
		t.Fatal("no up-switch despite abundant bandwidth")
	}
}

func TestFestiveStepsDownQuickly(t *testing.T) {
	f := newTestFestive()
	l := has.SimLadder()
	// At level 4 (2 Mbps) with collapsing bandwidth (300 kbps).
	for i := 0; i < 5; i++ {
		f.OnSegmentComplete(rec(4, 300_000))
	}
	q := f.NextQuality(state(l, 4, 10))
	if q >= 4 {
		t.Fatalf("no down-switch on bandwidth collapse: %d", q)
	}
	if q < 3 {
		t.Fatalf("FESTIVE should step down gradually, got %d from 4", q)
	}
}

func TestFestiveNeverJumpsLevels(t *testing.T) {
	check := func(seed uint64, tputsRaw []uint32) bool {
		f := NewFestive(sim.NewRNG(seed))
		l := has.SimLadder()
		cur := 0
		for _, tp := range tputsRaw {
			f.OnSegmentComplete(rec(cur, float64(tp%10_000_000)))
			q := f.NextQuality(state(l, cur, 15))
			if q < 0 || q >= l.Len() {
				return false
			}
			if q-cur > 1 {
				return false // never up more than one level
			}
			cur = q
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFestivePacingDelaysWhenBufferHigh(t *testing.T) {
	f := newTestFestive()
	l := has.SimLadder()
	if d := f.RequestDelay(state(l, 0, 1)); d != 0 {
		t.Fatalf("delay %d with near-empty buffer", d)
	}
	if d := f.RequestDelay(state(l, 0, 60)); d <= 0 {
		t.Fatal("no pacing delay with a 60 s buffer")
	}
}

// --- GOOGLE ---

func TestGoogleStartsLowest(t *testing.T) {
	g := NewGoogle()
	if got := g.NextQuality(state(has.SimLadder(), -1, 0)); got != 0 {
		t.Fatalf("first pick = %d", got)
	}
}

func TestGoogleUsesMinOfEstimates(t *testing.T) {
	g := NewGoogle()
	l := has.SimLadder()
	// Long history high, recent collapse: short-term must dominate.
	for i := 0; i < 8; i++ {
		g.OnSegmentComplete(rec(3, 5e6))
	}
	for i := 0; i < 3; i++ {
		g.OnSegmentComplete(rec(3, 400_000))
	}
	q := g.NextQuality(state(l, 3, 10))
	// 0.85 * 400k = 340k -> 250 kbps level (index 1).
	if q != 1 {
		t.Fatalf("quality = %d, want 1 after collapse", q)
	}
}

func TestGoogleJumpsDirectlyToEstimate(t *testing.T) {
	g := NewGoogle()
	l := has.SimLadder()
	for i := 0; i < 10; i++ {
		g.OnSegmentComplete(rec(0, 4e6))
	}
	// 0.85*4e6 = 3.4e6 -> top level immediately, no gradual climb.
	if q := g.NextQuality(state(l, 0, 10)); q != l.Len()-1 {
		t.Fatalf("quality = %d, want top %d", q, l.Len()-1)
	}
}

// --- Throughput (AVIS client) ---

func TestThroughputChasesEstimateWithoutMargin(t *testing.T) {
	a := NewThroughput(3)
	l := has.SimLadder()
	if q := a.NextQuality(state(l, -1, 0)); q != 0 {
		t.Fatalf("first pick = %d", q)
	}
	for i := 0; i < 3; i++ {
		a.OnSegmentComplete(rec(0, 1_000_000))
	}
	// Estimate exactly 1 Mbps -> picks the 1 Mbps rung (no 0.85 factor).
	if q := a.NextQuality(state(l, 0, 10)); q != 3 {
		t.Fatalf("quality = %d, want 3 (1 Mbps)", q)
	}
}

func TestThroughputWindowClamp(t *testing.T) {
	a := NewThroughput(-1)
	a.OnSegmentComplete(rec(0, 2e6))
	if q := a.NextQuality(state(has.SimLadder(), 0, 5)); q != 4 {
		t.Fatalf("quality = %d, want 4 (2 Mbps)", q)
	}
}

// --- FLARE plugin ---

func TestFlarePluginFollowsAssignment(t *testing.T) {
	p := NewFlarePlugin()
	l := has.SimLadder()
	if q := p.NextQuality(state(l, -1, 0)); q != 0 {
		t.Fatalf("pre-assignment pick = %d, want 0", q)
	}
	p.Deliver(1_000_000, 1)
	if q := p.NextQuality(state(l, 0, 10)); q != 3 {
		t.Fatalf("quality = %d, want 3", q)
	}
	if p.AssignedBps() != 1_000_000 {
		t.Fatal("AssignedBps accessor wrong")
	}
	// Assignment between rungs rounds down.
	p.Deliver(1_500_000, 2)
	if q := p.NextQuality(state(l, 3, 10)); q != 3 {
		t.Fatalf("quality = %d, want 3 (round down)", q)
	}
}

func TestAdapterNames(t *testing.T) {
	if newTestFestive().Name() != "festive" {
		t.Error("festive name")
	}
	if NewGoogle().Name() != "google" {
		t.Error("google name")
	}
	if NewBBA().Name() != "bba" {
		t.Error("bba name")
	}
	if NewThroughput(3).Name() != "throughput" {
		t.Error("throughput name")
	}
	if NewFlarePlugin().Name() != "flare" {
		t.Error("flare name")
	}
}

func TestFestivePacingJittersTargets(t *testing.T) {
	// The randomized scheduler must not use a fixed buffer target —
	// resampling after each delay is what de-synchronises clients.
	f := NewFestive(sim.NewRNG(5))
	l := has.SimLadder()
	seen := map[int64]bool{}
	for i := 0; i < 16; i++ {
		d := f.RequestDelay(state(l, 0, 60))
		if d <= 0 {
			t.Fatalf("no delay with a 60 s buffer (iteration %d)", i)
		}
		seen[d] = true
	}
	if len(seen) < 4 {
		t.Fatalf("pacing delays not randomized: %d distinct over 16 draws", len(seen))
	}
}

func TestFestiveIgnoresEmptyHistory(t *testing.T) {
	f := newTestFestive()
	// LastQuality set but no throughput samples yet: conservative start.
	if q := f.NextQuality(state(has.SimLadder(), 3, 10)); q != 0 {
		t.Fatalf("pick %d with empty history", q)
	}
}
