package cellsim

import (
	"reflect"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/faults"
	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/metrics"
)

// The fast-forward equivalence gate: the quiescence-aware kernel must
// produce byte-identical results to the naive TTI-by-TTI loop for every
// scheme, every channel model, mixed-scheme cells, fault injection, and
// series collection. Any divergence means a skipped TTI was not
// actually dead — a determinism bug, not a tolerance issue, so the
// comparisons are exact.

// runBothLoops executes cfg once per loop flavour and returns
// (naive, fast) results with wall-clock noise stripped.
func runBothLoops(t *testing.T, cfg Config) (*Result, *Result) {
	t.Helper()
	naiveCfg := cfg
	naiveCfg.DisableFastForward = true
	fastCfg := cfg
	fastCfg.DisableFastForward = false

	naive, err := Run(naiveCfg)
	if err != nil {
		t.Fatalf("naive run: %v", err)
	}
	fast, err := Run(fastCfg)
	if err != nil {
		t.Fatalf("fast run: %v", err)
	}
	return stripWallClock(naive), stripWallClock(fast)
}

// seriesPoints flattens a slice of time series for exact comparison.
func seriesPoints(ss []*metrics.TimeSeries) [][]metrics.Point {
	out := make([][]metrics.Point, len(ss))
	for i, s := range ss {
		out[i] = s.Points()
	}
	return out
}

func assertIdentical(t *testing.T, name string, naive, fast *Result) {
	t.Helper()
	if len(naive.SolveTimesSec) != len(fast.SolveTimesSec) {
		t.Fatalf("%s: BAI counts diverged: naive %d, fast %d",
			name, len(naive.SolveTimesSec), len(fast.SolveTimesSec))
	}
	if !reflect.DeepEqual(seriesPoints(naive.VideoRateSeries), seriesPoints(fast.VideoRateSeries)) ||
		!reflect.DeepEqual(seriesPoints(naive.BufferSeries), seriesPoints(fast.BufferSeries)) ||
		!reflect.DeepEqual(seriesPoints(naive.DataTputSeries), seriesPoints(fast.DataTputSeries)) {
		t.Fatalf("%s: time series diverged between naive and fast-forward loops", name)
	}
	// Series compared above; the structs hold pointers, so blank them
	// for the DeepEqual over everything else.
	n, f := *naive, *fast
	n.VideoRateSeries, f.VideoRateSeries = nil, nil
	n.BufferSeries, f.BufferSeries = nil, nil
	n.DataTputSeries, f.DataTputSeries = nil, nil
	if !reflect.DeepEqual(&n, &f) {
		t.Fatalf("%s: fast-forward diverged from naive loop:\nnaive %+v\nfast  %+v", name, naive, fast)
	}
}

// TestFastForwardEquivalenceAllSchemes pins every scheme on the golden
// scenario (cyclic channel, video + data + legacy populations).
func TestFastForwardEquivalenceAllSchemes(t *testing.T) {
	for _, scheme := range []Scheme{
		SchemeFLARE, SchemeFESTIVE, SchemeGOOGLE, SchemeAVIS, SchemeBBA, SchemeMPC,
	} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			cfg := goldenConfig(scheme)
			naive, fast := runBothLoops(t, cfg)
			assertIdentical(t, scheme.String(), naive, fast)
		})
	}
}

// TestFastForwardEquivalenceStaticIdleCell is the scenario with the most
// dead air (static channel, no data flows): the fast loop skips the
// most TTIs here, so it is the strongest exercise of the idle replay.
func TestFastForwardEquivalenceStaticIdleCell(t *testing.T) {
	cfg := quickConfig(SchemeFLARE, 3, 0)
	cfg.Duration = 180 * time.Second
	naive, fast := runBothLoops(t, cfg)
	assertIdentical(t, "static-idle", naive, fast)
}

// TestFastForwardEquivalenceChurnCell: 200 declared sessions, about 12
// live — the cell where most bearers sit idle, outside every per-TTI
// pass, and are aged only when next read. The naive loop is the oracle
// for what the kernel's jumps may skip; that aging on read matches the
// per-TTI arithmetic is held to the oracle in lte
// (TestSettledSkipMatchesTickEveryTTI). Here the point is the whole
// engine around it: arrivals onto idle bearers and departures
// mid-download.
func TestFastForwardEquivalenceChurnCell(t *testing.T) {
	cfg := churnConfig(7, 200, 160*time.Second, 12)
	naive, fast := runBothLoops(t, cfg)
	assertIdentical(t, "churn", naive, fast)
	streamedThenLeft := 0
	for i, c := range fast.Clients {
		if cfg.VideoDepartures[i] > 0 && c.Segments > 0 {
			streamedThenLeft++
		}
	}
	if streamedThenLeft < 50 {
		t.Fatalf("only %d sessions streamed and then departed; the churn case is not exercising departures", streamedThenLeft)
	}
}

// TestFastForwardEquivalenceMobility covers the stateful channel: the
// random-waypoint walk consumes RNG at every position step, so the
// catch-up path must replay exactly the draws the naive loop makes.
func TestFastForwardEquivalenceMobility(t *testing.T) {
	cfg := quickConfig(SchemeFESTIVE, 2, 1)
	cfg.Duration = 90 * time.Second
	mob := lte.DefaultMobilityConfig(0) // NumUEs overridden by the engine
	cfg.Channel = ChannelSpec{Kind: ChannelMobility, Mobility: mob}
	naive, fast := runBothLoops(t, cfg)
	assertIdentical(t, "mobility", naive, fast)
}

// TestFastForwardEquivalenceMixedCell covers multi-group cells: two
// schemes with different control ticks sharing one radio.
func TestFastForwardEquivalenceMixedCell(t *testing.T) {
	cfg := mixedConfig(2, 2)
	cfg.Duration = 90 * time.Second
	naive, fast := runBothLoops(t, cfg)
	assertIdentical(t, "mixed", naive, fast)
}

// TestFastForwardEquivalenceFaults covers control-plane fault injection,
// whose injectors draw from their own streams at BAI boundaries.
func TestFastForwardEquivalenceFaults(t *testing.T) {
	cfg := quickConfig(SchemeFLARE, 3, 1)
	cfg.Duration = 90 * time.Second
	cfg.ControlFaults = faults.Config{
		Seed:     7,
		DropRate: 0.4,
		Blackouts: []faults.Window{
			{From: 30 * time.Second, To: 50 * time.Second},
		},
	}
	naive, fast := runBothLoops(t, cfg)
	assertIdentical(t, "faults", naive, fast)
	if fast.ControlPlane.ReportsLost == 0 {
		t.Fatal("fault scenario lost no reports; test is not exercising the injectors")
	}
}

// TestFastForwardEquivalenceSeries runs with series collection on, so
// sample ticks are wake points and every per-second sample must land on
// the same TTI in both loops.
func TestFastForwardEquivalenceSeries(t *testing.T) {
	cfg := goldenConfig(SchemeFLARE)
	cfg.CollectSeries = true
	naive, fast := runBothLoops(t, cfg)
	assertIdentical(t, "series", naive, fast)
	if len(fast.VideoRateSeries) == 0 || fast.VideoRateSeries[0].Len() == 0 {
		t.Fatal("series scenario collected nothing")
	}
}
