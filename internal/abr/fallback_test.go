package abr

import (
	"testing"

	"github.com/flare-sim/flare/internal/has"
)

func pluginState(ladder has.Ladder) has.State {
	return has.State{Ladder: ladder, LastQuality: -1, Playing: true}
}

func TestPluginStaysCoordinatedWithFreshAssignments(t *testing.T) {
	p := &NewFlarePlugins(1, FallbackConfig{})[0]
	ladder := has.SimLadder()
	for seq := int64(1); seq <= 20; seq++ {
		p.Deliver(1_500_000, seq)
	}
	if p.Mode() != ModeCoordinated || p.Transitions() != 0 {
		t.Fatalf("mode %v transitions %d under healthy delivery", p.Mode(), p.Transitions())
	}
	if q := p.NextQuality(pluginState(ladder)); ladder.Rate(q) > 1_500_000 {
		t.Fatalf("coordinated quality %d exceeds assignment", q)
	}
}

func TestPluginFallsBackAfterKFailedPolls(t *testing.T) {
	p := &NewFlarePlugins(1, FallbackConfig{AfterFailedPolls: 3})[0]
	p.Deliver(3_000_000, 1)
	// Warm the local estimator: ~1 Mbps measured throughput.
	p.OnSegmentComplete(has.SegmentRecord{ThroughputBps: 1_000_000})
	p.OnSegmentComplete(has.SegmentRecord{ThroughputBps: 1_000_000})

	p.PollFailed()
	p.PollFailed()
	if p.Mode() != ModeCoordinated {
		t.Fatal("fell back before K failures")
	}
	p.PollFailed()
	if p.Mode() != ModeFallback {
		t.Fatal("did not fall back after K consecutive failed polls")
	}
	if p.Transitions() != 1 {
		t.Fatalf("transitions = %d", p.Transitions())
	}

	// Degraded: local throughput ABR, not the dead 3 Mbps assignment.
	ladder := has.SimLadder()
	q := p.NextQuality(pluginState(ladder))
	if got := ladder.Rate(q); got > 1_000_000 {
		t.Fatalf("fallback chose %v bps against ~1 Mbps measured", got)
	}
	if q == 0 && ladder.Rate(1) <= 850_000 {
		t.Fatalf("fallback pinned to floor despite usable estimate")
	}

	// Recovery: one fresh assignment rejoins coordination.
	p.Deliver(2_000_000, 2)
	if p.Mode() != ModeCoordinated || p.Transitions() != 2 {
		t.Fatalf("recovery: mode %v transitions %d", p.Mode(), p.Transitions())
	}
	if got := ladder.Rate(p.NextQuality(pluginState(ladder))); got > 2_000_000 {
		t.Fatalf("post-recovery quality %v exceeds assignment", got)
	}
}

func TestPluginFallsBackOnStaleAssignment(t *testing.T) {
	p := &NewFlarePlugins(1, FallbackConfig{MaxAssignmentAgeBAIs: 4})[0]
	p.Deliver(1_000_000, 1)
	// Polls succeed but the assignment never advances (e.g. this flow's
	// GBR installs keep failing at the PCEF).
	for i := 0; i < 3; i++ {
		p.Deliver(1_000_000, 1)
	}
	if p.Mode() != ModeCoordinated {
		t.Fatal("fell back before M stale deliveries")
	}
	p.Deliver(1_000_000, 1)
	if p.Mode() != ModeFallback {
		t.Fatal("did not fall back after M stale deliveries")
	}
	// An interleaved failed poll must not reset the staleness clock —
	// only a *fresh* sequence does.
	p2 := &NewFlarePlugins(1, FallbackConfig{MaxAssignmentAgeBAIs: 2, AfterFailedPolls: 99})[0]
	p2.Deliver(1_000_000, 1)
	p2.Deliver(1_000_000, 1)
	p2.Deliver(1_000_000, 1)
	if p2.Mode() != ModeFallback {
		t.Fatal("staleness not accumulated across deliveries")
	}
}

func TestPluginFallbackWithoutHistoryPlaysFloor(t *testing.T) {
	p := &NewFlarePlugins(1, FallbackConfig{AfterFailedPolls: 1})[0]
	p.PollFailed()
	if p.Mode() != ModeFallback {
		t.Fatal("not in fallback")
	}
	if q := p.NextQuality(pluginState(has.SimLadder())); q != 0 {
		t.Fatalf("no-history fallback chose level %d", q)
	}
}

func TestPluginCountsFallbackIntervals(t *testing.T) {
	p := &NewFlarePlugins(1, FallbackConfig{AfterFailedPolls: 1})[0]
	p.PollFailed() // degrade (interval counted from the next tick on)
	p.PollFailed()
	p.PollFailed()
	p.Deliver(1_000_000, 1) // recover
	if p.FallbackIntervals() != 3 {
		t.Fatalf("fallback intervals = %d", p.FallbackIntervals())
	}
	if p.Mode() != ModeCoordinated {
		t.Fatal("did not recover")
	}
}

func TestPluginModeString(t *testing.T) {
	if ModeCoordinated.String() != "coordinated" || ModeFallback.String() != "fallback" {
		t.Fatal("mode strings")
	}
}
