package cellsim

import (
	"reflect"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/faults"
)

// stripWallClock drops the one legitimately non-deterministic field —
// measured optimiser wall times — so results can be compared exactly.
func stripWallClock(r *Result) *Result {
	c := *r
	c.SolveTimesSec = nil
	return &c
}

// TestZeroFaultConfigLeavesRunsByteIdentical is the determinism gate:
// wiring the fault-injection machinery in (with a seed but no enabled
// faults) must leave every result field — per-client metrics, solve
// times, RNG-stream-dependent outcomes — identical to a plain run.
func TestZeroFaultConfigLeavesRunsByteIdentical(t *testing.T) {
	plain := quickConfig(SchemeFLARE, 3, 1)
	plain.Duration = 90 * time.Second

	wired := plain
	wired.ControlFaults = faults.Config{Seed: 12345} // seeded but disabled

	a, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(wired)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.SolveTimesSec) != len(b.SolveTimesSec) {
		t.Fatalf("BAI counts diverged: %d vs %d", len(a.SolveTimesSec), len(b.SolveTimesSec))
	}
	if !reflect.DeepEqual(stripWallClock(a), stripWallClock(b)) {
		t.Fatalf("disabled fault config perturbed the run:\nplain %+v\nwired %+v", a, b)
	}
	if a.ControlPlane != (ControlPlaneStats{}) {
		t.Fatalf("fault-free run reported control-plane activity: %+v", a.ControlPlane)
	}
	if n := a.TotalFallbackTransitions(); n != 0 {
		t.Fatalf("fault-free run saw %d fallback transitions", n)
	}
}

// TestFaultRunsAreDeterministic: the injectors own seeded streams, so a
// heavily faulted run replays exactly.
func TestFaultRunsAreDeterministic(t *testing.T) {
	cfg := quickConfig(SchemeFLARE, 3, 1)
	cfg.Duration = 90 * time.Second
	cfg.ControlFaults = faults.Config{
		Seed:     7,
		DropRate: 0.4,
		Blackouts: []faults.Window{
			{From: 30 * time.Second, To: 50 * time.Second},
		},
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripWallClock(a), stripWallClock(b)) {
		t.Fatal("faulted run is not reproducible for a fixed seed")
	}
	if a.ControlPlane.ReportsLost == 0 || a.ControlPlane.PollsLost == 0 {
		t.Fatalf("expected control-plane losses, got %+v", a.ControlPlane)
	}
}

// TestFLAREBlackoutDegradesAndRecovers drives a full control-plane
// blackout through the middle of a run: every plugin must degrade to its
// local ABR within K failed polls, keep streaming without stalling on
// the dead assignment, and rejoin coordination when the plane returns.
func TestFLAREBlackoutDegradesAndRecovers(t *testing.T) {
	cfg := quickConfig(SchemeFLARE, 3, 1)
	cfg.Duration = 180 * time.Second
	cfg.ControlFaults = faults.Config{
		Seed: 1,
		Blackouts: []faults.Window{
			{From: 60 * time.Second, To: 110 * time.Second},
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clients {
		// Degrade once, recover once — at minimum.
		if c.FallbackTransitions < 2 {
			t.Errorf("client %d made %d mode transitions through a 50 s blackout",
				c.FlowID, c.FallbackTransitions)
		}
		if c.FallbackIntervals == 0 {
			t.Errorf("client %d spent no intervals degraded", c.FlowID)
		}
		// The data plane is untouched; degraded sessions must not stall.
		if c.StallSeconds > 0 {
			t.Errorf("client %d stalled %.1f s during the blackout", c.FlowID, c.StallSeconds)
		}
		if c.AvgRateBps < 200_000 {
			t.Errorf("client %d collapsed to %.0f bps", c.FlowID, c.AvgRateBps)
		}
	}
	// The blackout covers ~25 of ~90 BAIs: both legs must record losses.
	if res.ControlPlane.ReportsLost < 20 || res.ControlPlane.PollsLost < 60 {
		t.Fatalf("blackout barely registered: %+v", res.ControlPlane)
	}
	// No BAI ran inside the window.
	expected := cfg.Duration.Seconds() / cfg.Flare.BAI.Seconds()
	if got := float64(len(res.SolveTimesSec)); got >= expected {
		t.Fatalf("solved %v BAIs despite a blackout (max %v)", got, expected)
	}
}

// TestFLAREHeavyLossNeverStalls sweeps the ISSUE's ≥30% loss floor well
// past it: at 50% symmetric control-plane loss sessions must complete,
// fall back rather than freeze, and keep a useful rate.
func TestFLAREHeavyLossNeverStalls(t *testing.T) {
	cfg := quickConfig(SchemeFLARE, 3, 1)
	cfg.Duration = 180 * time.Second
	cfg.ControlFaults = faults.Config{Seed: 3, DropRate: 0.5}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clients {
		if c.Segments == 0 {
			t.Fatalf("client %d downloaded nothing", c.FlowID)
		}
		if c.StallSeconds > 5 {
			t.Errorf("client %d stalled %.1f s at 50%% control loss", c.FlowID, c.StallSeconds)
		}
		if c.AvgRateBps < 200_000 {
			t.Errorf("client %d collapsed to %.0f bps", c.FlowID, c.AvgRateBps)
		}
	}
	// With p=0.5 per poll over ~90 intervals, runs of K=3 losses are
	// near-certain: the fallback machinery must have engaged somewhere.
	if res.TotalFallbackTransitions() == 0 {
		t.Fatal("no plugin ever fell back at 50% poll loss")
	}
	if res.ControlPlane.PollsLost == 0 || res.ControlPlane.ReportsLost == 0 {
		t.Fatalf("injector recorded no losses: %+v", res.ControlPlane)
	}
	// A lost report skips that BAI's solve: roughly half should run.
	expected := cfg.Duration.Seconds() / cfg.Flare.BAI.Seconds()
	if got := float64(len(res.SolveTimesSec)); got > 0.8*expected || got < 0.2*expected {
		t.Fatalf("solved %v of ~%v BAIs at 50%% report loss", got, expected)
	}
}
