package abr

import (
	"testing"

	"github.com/flare-sim/flare/internal/has"
)

// --- BBA ---

func TestBBAStartsLowest(t *testing.T) {
	b := NewBBA()
	if q := b.NextQuality(state(has.SimLadder(), -1, 0)); q != 0 {
		t.Fatalf("first pick %d", q)
	}
}

func TestBBABufferMap(t *testing.T) {
	b := NewBBA()
	l := has.SimLadder()
	// Below reservoir: mapped rate is the minimum -> step down toward 0.
	if q := b.NextQuality(state(l, 3, 2)); q != 0 {
		t.Fatalf("below reservoir picked %d", q)
	}
	// Above cushion: mapped rate is the maximum -> step up one.
	if q := b.NextQuality(state(l, 3, 28)); q != 4 {
		t.Fatalf("above cushion picked %d, want one step up", q)
	}
	// Mid-cushion where the mapped rate (~782 kbps at buffer 9) sits
	// between the current rung (500k) and the next (1M): hold.
	midState := state(l, 2, 9)
	if q := b.NextQuality(midState); q != 2 {
		t.Fatalf("mid-cushion moved to %d", q)
	}
}

func TestBBAMonotoneInBuffer(t *testing.T) {
	b := NewBBA()
	l := has.SimLadder()
	prev := -1
	for buf := 0.0; buf <= 30; buf += 1 {
		q := b.NextQuality(state(l, 3, buf))
		if prev >= 0 && q < prev && buf > 1 {
			// Mapped rate grows with buffer; from a fixed current level
			// the decision must be non-decreasing in buffer.
			t.Fatalf("decision fell from %d to %d at buffer %v", prev, q, buf)
		}
		prev = q
	}
}

// --- MPC ---

func TestMPCStartsLowest(t *testing.T) {
	m := NewMPC(DefaultMPCConfig())
	if q := m.NextQuality(state(has.SimLadder(), -1, 0)); q != 0 {
		t.Fatalf("first pick %d", q)
	}
	if m.Name() != "mpc" {
		t.Fatal("name")
	}
}

func TestMPCClimbsWithBandwidthAndBuffer(t *testing.T) {
	cfg := DefaultMPCConfig()
	cfg.SegmentSeconds = 2
	m := NewMPC(cfg)
	l := has.SimLadder()
	// With 8 Mbps predictions and a full buffer, one switch penalty is
	// worth the sustained quality gain: MPC moves up decisively and
	// then holds (no oscillation).
	cur := 0
	var picks []int
	for seg := 0; seg < 12; seg++ {
		m.OnSegmentComplete(rec(cur, 8e6))
		cur = m.NextQuality(state(l, cur, 20))
		picks = append(picks, cur)
	}
	if cur < 4 {
		t.Fatalf("MPC stuck at %d with 8 Mbps predictions", cur)
	}
	for i := 4; i < len(picks); i++ {
		if picks[i] != picks[i-1] {
			t.Fatalf("MPC oscillated in steady state: %v", picks)
		}
	}
}

func TestMPCAvoidsRebuffering(t *testing.T) {
	cfg := DefaultMPCConfig()
	cfg.SegmentSeconds = 2
	m := NewMPC(cfg)
	l := has.SimLadder()
	// 600 kbps predicted throughput, nearly empty buffer: picking 2 or
	// 3 Mbps would stall; MPC must stay at or below 500 kbps.
	for i := 0; i < 5; i++ {
		m.OnSegmentComplete(rec(4, 600_000))
	}
	q := m.NextQuality(state(l, 4, 1))
	if rate := l.Rate(q); rate > 600_000 {
		t.Fatalf("MPC picked %v bps against 600k prediction with empty buffer", rate)
	}
}

func TestMPCRobustDiscountsAfterMisprediction(t *testing.T) {
	cfg := DefaultMPCConfig()
	cfg.SegmentSeconds = 2
	m := NewMPC(cfg)
	l := has.SimLadder()
	// Stable 2.4 Mbps history.
	for i := 0; i < 5; i++ {
		m.OnSegmentComplete(rec(3, 2_400_000))
	}
	m.NextQuality(state(l, 3, 10)) // records a prediction
	// Reality comes in far below the prediction.
	m.OnSegmentComplete(rec(3, 800_000))
	if m.maxErr == 0 {
		t.Fatal("prediction error not tracked")
	}
	// The discounted prediction must now be well below the raw mean.
	m.NextQuality(state(l, 3, 4))
	raw := m.hist.HarmonicMean(0)
	if want := raw / (1 + m.maxErr); m.lastPrediction != want || m.lastPrediction >= raw {
		t.Fatalf("prediction %v, want the raw %v discounted to %v", m.lastPrediction, raw, want)
	}
}

func TestMPCEmergencyDropReachesFloor(t *testing.T) {
	cfg := DefaultMPCConfig()
	cfg.SegmentSeconds = 2
	m := NewMPC(cfg)
	l := has.SimLadder()
	// Throughput collapses to 150 kbps with an empty buffer: the first
	// decision must crash all the way down, not descend one rung.
	for i := 0; i < 5; i++ {
		m.OnSegmentComplete(rec(5, 150_000))
	}
	if q := m.NextQuality(state(l, 5, 0.5)); q != 0 {
		t.Fatalf("MPC picked %d during collapse, want 0", q)
	}
}

// TestQoEMonotone checks MPC's objective rewards quality: with ample
// bandwidth and buffer (no stall) a path that holds its level steady
// (every delta 0, no switch) scores higher the higher the level.
func TestQoEMonotone(t *testing.T) {
	m := NewMPC(DefaultMPCConfig())
	l := has.SimLadder()
	hold := 0 // path digits of 1 encode delta 0 at every later step
	for i := 1; i < mpcHorizon; i++ {
		hold = 3*hold + 1
	}
	pred := 100 * l.Rate(l.Len()-1)
	prev := 0.0
	for q := 0; q < l.Len(); q++ {
		v := m.scorePath(state(l, q, 30), q, q, pred, hold)
		if q > 0 && v <= prev {
			t.Fatalf("steady score not increasing at level %d: %v <= %v", q, v, prev)
		}
		prev = v
	}
}
