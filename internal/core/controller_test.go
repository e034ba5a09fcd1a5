package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/has"
)

// gateFlow drives GateStep the way the controller drives it for one
// flow's row: the streak carries from one BAI to the next.
type gateFlow struct{ delta, streak int }

func (g *gateFlow) apply(prevLevel, recommended int) int {
	final, streak, _ := GateStep(g.delta, g.streak, prevLevel, recommended)
	g.streak = streak
	return final
}

func TestGateInitialAssignment(t *testing.T) {
	g := &gateFlow{delta: 4}
	if got := g.apply(-1, 0); got != 0 {
		t.Fatalf("initial assignment = %d, want 0", got)
	}
}

func TestGateDelaysUpSwitch(t *testing.T) {
	g := &gateFlow{delta: 4}
	// From level 0 (1-indexed 1), stepping to 1 requires 4*(1+1)=8
	// consecutive recommendations.
	for i := 1; i <= 7; i++ {
		if got := g.apply(0, 1); got != 0 {
			t.Fatalf("up-switch granted after %d recs", i)
		}
	}
	if got := g.apply(0, 1); got != 1 {
		t.Fatal("up-switch denied after 8 recs")
	}
}

func TestGateStreakResetsOnOtherRecommendation(t *testing.T) {
	g := &gateFlow{delta: 2}
	g.apply(0, 1)
	g.apply(0, 1)
	g.apply(0, 0) // streak broken
	for i := 1; i <= 3; i++ {
		if got := g.apply(0, 1); got == 1 && i < 4 {
			// required = 2*(0+2) = 4
			t.Fatalf("up-switch after broken streak at %d", i)
		}
	}
}

func TestGateDropsImmediately(t *testing.T) {
	g := &gateFlow{delta: 4}
	if got := g.apply(4, 1); got != 1 {
		t.Fatalf("drop to 1 returned %d", got)
	}
	if got := g.apply(3, 0); got != 0 {
		t.Fatalf("drop to 0 returned %d", got)
	}
}

func TestGateNeverExceedsPrevPlusOne(t *testing.T) {
	g := &gateFlow{delta: 1}
	for prev := 0; prev < 5; prev++ {
		for rec := 0; rec <= prev+1; rec++ {
			got := g.apply(prev, rec)
			if got > prev+1 {
				t.Fatalf("gate returned %d from prev %d", got, prev)
			}
		}
	}
}

func TestGateHigherLevelsClimbSlower(t *testing.T) {
	g := &gateFlow{delta: 2}
	climb := func(prev int) int {
		n := 0
		for {
			n++
			if g.apply(prev, prev+1) == prev+1 {
				return n
			}
		}
	}
	low := climb(0)  // 2*(0+2) = 4
	high := climb(3) // 2*(3+2) = 10
	if low != 4 || high != 10 {
		t.Fatalf("climb counts = %d, %d; want 4, 10", low, high)
	}
}

func TestGateDeltaZeroDisables(t *testing.T) {
	g := &gateFlow{delta: 0}
	if got := g.apply(2, 3); got != 3 {
		t.Fatalf("delta=0 gate delayed the up-switch: %d", got)
	}
}

// TestGateForget: a flow's streak and install record live on its row,
// so a departed flow that registers again starts from a fresh one.
func TestGateForget(t *testing.T) {
	cfg := DefaultConfig() // delta 4: a climb from level 0 needs 8 BAIs
	cfg.CostSmoothing = 1
	c := controllerForTest(t, cfg, 2)
	// Pin the first assignment low with a terrible radio report, then let
	// the channel recover: the gate holds the climb while the streak builds.
	if _, err := c.RunBAI(map[int]FlowStats{1: {Bytes: 10_000, RBs: 100_000}}, 0); err != nil {
		t.Fatal(err)
	}
	for bai := 0; bai < 3; bai++ {
		if _, err := c.RunBAI(map[int]FlowStats{1: {Bytes: 1_000_000, RBs: 40_000}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if f := c.row(1); f == nil || f.streak == 0 {
		t.Fatalf("no up-streak built for flow 1 after the channel recovered: %+v", f)
	}
	c.SetInstalled(1, Assignment{FlowID: 1, Level: 2, RateBps: 1e6}, 3)
	c.Unregister(1)
	if err := c.Register(1, has.SimLadder(), Preferences{}); err != nil {
		t.Fatal(err)
	}
	if f := c.row(1); f.streak != 0 || f.level != -1 {
		t.Fatalf("re-registered flow kept its streak or level: %+v", f)
	}
	if _, _, ok := c.Installed(1); ok {
		t.Fatal("re-registered flow kept its install record")
	}
}

// --- Controller ---

func controllerForTest(t *testing.T, cfg Config, n int) *Controller {
	t.Helper()
	c := NewController(cfg)
	for id := 0; id < n; id++ {
		if err := c.Register(id, has.SimLadder(), Preferences{}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestControllerRegisterValidation(t *testing.T) {
	c := NewController(DefaultConfig())
	if err := c.Register(1, has.Ladder{}, Preferences{}); err == nil {
		t.Error("empty ladder accepted")
	}
	if err := c.Register(1, has.SimLadder(), Preferences{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(1, has.SimLadder(), Preferences{}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if c.NumFlows() != 1 {
		t.Fatalf("NumFlows = %d", c.NumFlows())
	}
	c.Unregister(1)
	if c.NumFlows() != 0 {
		t.Fatal("Unregister failed")
	}
}

func TestControllerDefaultsApplied(t *testing.T) {
	c := NewController(Config{})
	def := DefaultConfig()
	got := c.Config()
	if got.Beta != def.Beta || got.ThetaBps != def.ThetaBps || got.BAI != def.BAI {
		t.Fatalf("defaults not applied: %+v", got)
	}
	if c.BAI() != def.BAI {
		t.Fatal("BAI accessor wrong")
	}
}

func TestControllerFirstBAIAssignsImmediately(t *testing.T) {
	c := controllerForTest(t, DefaultConfig(), 3)
	got, err := c.RunBAI(map[int]FlowStats{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d assignments, want 3", len(got))
	}
	// First BAI (i = 1) carries no stability constraint: with the
	// default cost prior and an empty cell, flows land above the floor
	// right away.
	for _, a := range got {
		if a.Level < 0 || a.RateBps < 100_000 {
			t.Fatalf("first assignment %+v", a)
		}
	}
	// Second BAI may rise at most one level above the first.
	first := got[0].Level
	got, err = c.RunBAI(map[int]FlowStats{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Level > first+1 {
		t.Fatalf("second BAI jumped from %d to %d", first, got[0].Level)
	}
}

func TestControllerClimbsUnderGate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Delta = 1
	c := controllerForTest(t, cfg, 1)
	stats := map[int]FlowStats{0: {Bytes: 1_000_000, RBs: 40_000}} // 25 B/RB
	levels := []int{}
	for bai := 0; bai < 30; bai++ {
		as, err := c.RunBAI(stats, 0)
		if err != nil {
			t.Fatal(err)
		}
		levels = append(levels, as[0].Level)
	}
	// Ample capacity and delta=1: the flow must climb, one level at a
	// time, reaching the ladder top.
	top := has.SimLadder().Len() - 1
	if levels[len(levels)-1] != top {
		t.Fatalf("never reached top: %v", levels)
	}
	for i := 1; i < len(levels); i++ {
		if levels[i]-levels[i-1] > 1 {
			t.Fatalf("jumped more than one level: %v", levels)
		}
		if levels[i] < levels[i-1] {
			t.Fatalf("dropped without congestion: %v", levels)
		}
	}
}

func TestControllerDeltaSlowsClimb(t *testing.T) {
	climbTime := func(delta int) int {
		cfg := DefaultConfig()
		cfg.Delta = delta
		c := NewController(cfg)
		if err := c.Register(0, has.SimLadder(), Preferences{}); err != nil {
			panic(err)
		}
		// Pin the first (unconstrained) assignment low with a terrible
		// radio report, then let the channel recover and measure the
		// gated climb back to the top.
		if _, err := c.RunBAI(map[int]FlowStats{0: {Bytes: 10_000, RBs: 100_000}}, 0); err != nil {
			panic(err)
		}
		stats := map[int]FlowStats{0: {Bytes: 1_000_000, RBs: 40_000}}
		for bai := 1; bai <= 500; bai++ {
			as, err := c.RunBAI(stats, 0)
			if err != nil {
				panic(err)
			}
			if as[0].Level == has.SimLadder().Len()-1 {
				return bai
			}
		}
		return 501
	}
	fast := climbTime(1)
	slow := climbTime(6)
	if fast >= slow {
		t.Fatalf("delta=1 climbed in %d BAIs, delta=6 in %d; want faster", fast, slow)
	}
}

func TestControllerDropsOnCongestion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Delta = 1
	c := controllerForTest(t, cfg, 1)
	good := map[int]FlowStats{0: {Bytes: 1_000_000, RBs: 40_000}}
	var level int
	for bai := 0; bai < 30; bai++ {
		as, err := c.RunBAI(good, 0)
		if err != nil {
			t.Fatal(err)
		}
		level = as[0].Level
	}
	if level < 3 {
		t.Fatalf("flow never climbed: level %d", level)
	}
	// Radio collapses: cost per byte becomes enormous.
	bad := map[int]FlowStats{0: {Bytes: 10_000, RBs: 100_000}}
	as, err := c.RunBAI(bad, 0)
	if err != nil {
		t.Fatal(err)
	}
	if as[0].Level >= level {
		t.Fatalf("no drop on congestion: %d -> %d", level, as[0].Level)
	}
}

func TestControllerHintUsedWhenIdle(t *testing.T) {
	c := controllerForTest(t, DefaultConfig(), 1)
	// Idle flow with a very poor channel hint: assignments must stay low
	// even after many BAIs.
	stats := map[int]FlowStats{0: {BytesPerRBHint: 0.5}} // terrible radio
	var level int
	for bai := 0; bai < 40; bai++ {
		as, err := c.RunBAI(stats, 0)
		if err != nil {
			t.Fatal(err)
		}
		level = as[0].Level
	}
	if level > 1 {
		t.Fatalf("idle flow with bad hint climbed to %d", level)
	}
}

func TestControllerPreferencesCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Delta = 0
	c := NewController(cfg)
	if err := c.Register(0, has.SimLadder(), Preferences{MaxBps: 500_000}); err != nil {
		t.Fatal(err)
	}
	stats := map[int]FlowStats{0: {Bytes: 5_000_000, RBs: 50_000}}
	var level int
	for bai := 0; bai < 20; bai++ {
		as, err := c.RunBAI(stats, 0)
		if err != nil {
			t.Fatal(err)
		}
		level = as[0].Level
	}
	if level > 2 {
		t.Fatalf("client cap violated: level %d", level)
	}
	// Lifting the cap lets it climb.
	if err := c.SetPreferences(0, Preferences{MaxBps: 0}); err != nil {
		t.Fatal(err)
	}
	for bai := 0; bai < 20; bai++ {
		as, err := c.RunBAI(stats, 0)
		if err != nil {
			t.Fatal(err)
		}
		level = as[0].Level
	}
	if level <= 2 {
		t.Fatalf("flow stuck at %d after cap removal", level)
	}
	if err := c.SetPreferences(99, Preferences{}); err == nil {
		t.Error("SetPreferences on unknown flow succeeded")
	}
}

func TestControllerNegativeDataFlows(t *testing.T) {
	c := controllerForTest(t, DefaultConfig(), 1)
	if _, err := c.RunBAI(nil, -1); err == nil {
		t.Fatal("negative data-flow count accepted")
	}
}

func TestControllerEmptyIsNoop(t *testing.T) {
	c := NewController(DefaultConfig())
	as, err := c.RunBAI(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if as != nil {
		t.Fatalf("assignments for empty cell: %v", as)
	}
}

func TestControllerSolveTimesRecorded(t *testing.T) {
	c := controllerForTest(t, DefaultConfig(), 4)
	for i := 0; i < 5; i++ {
		if _, err := c.RunBAI(nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if n, d := c.LastSolve(); n != 5 || d < 0 || d > time.Second {
		t.Fatalf("LastSolve = %d, %v; want 5 solves of a plausible time", n, d)
	}
}

func TestControllerRelaxationMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseRelaxation = true
	cfg.Delta = 1
	c := NewController(cfg)
	if err := c.Register(0, has.FineLadder(), Preferences{}); err != nil {
		t.Fatal(err)
	}
	stats := map[int]FlowStats{0: {Bytes: 2_000_000, RBs: 50_000}}
	var level int
	for bai := 0; bai < 60; bai++ {
		as, err := c.RunBAI(stats, 0)
		if err != nil {
			t.Fatal(err)
		}
		level = as[0].Level
	}
	if level < 5 {
		t.Fatalf("relaxation mode never climbed: level %d", level)
	}
}

func TestControllerAssignmentsSorted(t *testing.T) {
	c := NewController(DefaultConfig())
	for _, id := range []int{5, 1, 9, 3} {
		if err := c.Register(id, has.SimLadder(), Preferences{}); err != nil {
			t.Fatal(err)
		}
	}
	as, err := c.RunBAI(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 5, 9}
	for i, a := range as {
		if a.FlowID != want[i] {
			t.Fatalf("assignment order %v", as)
		}
	}
}

func TestControllerSkimmingPinsMinimum(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Delta = 0
	c := NewController(cfg)
	if err := c.Register(0, has.SimLadder(), Preferences{Skimming: true}); err != nil {
		t.Fatal(err)
	}
	rich := map[int]FlowStats{0: {Bytes: 5_000_000, RBs: 50_000}}
	for bai := 0; bai < 10; bai++ {
		as, err := c.RunBAI(rich, 0)
		if err != nil {
			t.Fatal(err)
		}
		if as[0].Level != 0 {
			t.Fatalf("skimming flow assigned level %d", as[0].Level)
		}
	}
	// Viewer settles down: normal assignment resumes.
	if err := c.SetPreferences(0, Preferences{}); err != nil {
		t.Fatal(err)
	}
	var level int
	for bai := 0; bai < 10; bai++ {
		as, err := c.RunBAI(rich, 0)
		if err != nil {
			t.Fatal(err)
		}
		level = as[0].Level
	}
	if level == 0 {
		t.Fatal("flow stuck at minimum after skimming cleared")
	}
}

func TestControllerSnapshot(t *testing.T) {
	c := NewController(DefaultConfig())
	prefs := Preferences{MaxBps: 1e6, Beta: 20, ThetaBps: 0.4e6, Skimming: true}
	if err := c.Register(3, has.SimLadder(), prefs); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot(3)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Ladder.Len() != 6 {
		t.Fatalf("snapshot ladder %v", snap.Ladder)
	}
	if snap.Preferences != prefs {
		t.Fatalf("snapshot prefs %+v, want %+v", snap.Preferences, prefs)
	}
	// Snapshot must not alias the live ladder.
	snap.Ladder[0] = 1
	snap2, err := c.Snapshot(3)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Ladder[0] == 1 {
		t.Fatal("snapshot aliased controller state")
	}
	if _, err := c.Snapshot(99); err == nil {
		t.Fatal("snapshot of unknown flow accepted")
	}
}

// TestRegisterReportsExistingRow: Register refuses a flow that is
// already registered with an error wrapping ErrRegistered, so the
// OneAPI server's open learns of an idempotent re-open from Register's
// one search instead of searching the flow table first.
func TestRegisterReportsExistingRow(t *testing.T) {
	c := NewController(DefaultConfig())
	if err := c.Register(1, has.SimLadder(), Preferences{}); err != nil {
		t.Fatal(err)
	}
	err := c.Register(1, has.SimLadder(), Preferences{})
	if !errors.Is(err, ErrRegistered) || err.Error() != "core: flow 1 already registered" {
		t.Fatalf("re-register: %v, want core: flow 1 already registered wrapping ErrRegistered", err)
	}
	if err := c.Register(2, has.SimLadder(), Preferences{}); errors.Is(err, ErrRegistered) {
		t.Fatalf("new flow refused as registered: %v", err)
	}
}

// TestNormalizedReplacesNaN: a NaN passes every "< 0" test, so each
// float field is checked for it by name; NaN falls back to the default
// as a negative value does.
func TestNormalizedReplacesNaN(t *testing.T) {
	fields := []struct {
		name  string
		field func(*Config) *float64
	}{
		{"Alpha", func(c *Config) *float64 { return &c.Alpha }},
		{"Beta", func(c *Config) *float64 { return &c.Beta }},
		{"ThetaBps", func(c *Config) *float64 { return &c.ThetaBps }},
		{"StickinessBonus", func(c *Config) *float64 { return &c.StickinessBonus }},
		{"CapacityMargin", func(c *Config) *float64 { return &c.CapacityMargin }},
		{"CostSmoothing", func(c *Config) *float64 { return &c.CostSmoothing }},
	}
	def := DefaultConfig()
	for _, f := range fields {
		cfg := DefaultConfig()
		*f.field(&cfg) = math.NaN()
		cfg = cfg.Normalized()
		if got, want := *f.field(&cfg), *f.field(&def); got != want {
			t.Errorf("%s NaN normalized to %v, want the default %v", f.name, got, want)
		}
	}
}

// TestNormalizedIsIdempotent: the server normalizes its configuration
// and each controller it creates normalizes it again, so a second pass
// must keep every value the first chose — a negative StickinessBonus
// (disabled) included.
func TestNormalizedIsIdempotent(t *testing.T) {
	bad := Config{Alpha: -1, BAI: -3 * time.Second, CostSmoothing: 2, StickinessBonus: -1, CapacityMargin: 5}
	once := bad.Normalized()
	if twice := once.Normalized(); twice != once {
		t.Errorf("Normalized twice = %+v, once = %+v", twice, once)
	}
	if once.BAI != time.Second || once.StickinessBonus >= 0 {
		t.Errorf("Normalized(%+v) = %+v: want a 1 s BAI and the bonus left disabled", bad, once)
	}
}
