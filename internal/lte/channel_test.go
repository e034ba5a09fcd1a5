package lte

import (
	"testing"

	"github.com/flare-sim/flare/internal/sim"
)

func TestStaticChannel(t *testing.T) {
	c := NewStaticChannel(2, 7, 26)
	if c.NumUEs() != 3 {
		t.Fatalf("NumUEs = %d", c.NumUEs())
	}
	for tti := int64(0); tti < 100; tti += 10 {
		c.Update(tti)
		if c.ITbs(0) != 2 || c.ITbs(1) != 7 || c.ITbs(2) != 26 {
			t.Fatalf("static channel changed at tti %d", tti)
		}
	}
}

func TestUniformStaticChannel(t *testing.T) {
	c := NewUniformStaticChannel(4, 99) // clamped
	if c.NumUEs() != 4 {
		t.Fatalf("NumUEs = %d", c.NumUEs())
	}
	if c.ITbs(3) != MaxITbs {
		t.Fatalf("iTbs = %d, want clamped %d", c.ITbs(3), MaxITbs)
	}
}

func TestCyclicChannelShape(t *testing.T) {
	// 1 -> 12 -> 1 over 240000 TTIs (4 min), like the dynamic testbed.
	period := int64(240000)
	c, err := NewCyclicChannel(1, 12, period, []int64{0})
	if err != nil {
		t.Fatal(err)
	}
	c.Update(0)
	if got := c.ITbs(0); got != 1 {
		t.Errorf("at phase 0: iTbs = %d, want 1", got)
	}
	c.Update(period / 2)
	if got := c.ITbs(0); got != 12 {
		t.Errorf("at half period: iTbs = %d, want 12", got)
	}
	c.Update(period)
	if got := c.ITbs(0); got != 1 {
		t.Errorf("at full period: iTbs = %d, want 1", got)
	}
	// Quarter period is mid-ramp.
	c.Update(period / 4)
	if got := c.ITbs(0); got < 5 || got > 8 {
		t.Errorf("at quarter period: iTbs = %d, want mid-ramp", got)
	}
}

func TestCyclicChannelMonotoneRamp(t *testing.T) {
	period := int64(1000)
	c, err := NewCyclicChannel(1, 12, period, []int64{0})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for tti := int64(0); tti <= period/2; tti += 10 {
		c.Update(tti)
		if v := c.ITbs(0); v < prev {
			t.Fatalf("rising half not monotone at %d: %d < %d", tti, v, prev)
		} else {
			prev = v
		}
	}
	for tti := period / 2; tti <= period; tti += 10 {
		c.Update(tti)
		if v := c.ITbs(0); v > prev {
			t.Fatalf("falling half not monotone at %d: %d > %d", tti, v, prev)
		} else {
			prev = v
		}
	}
}

func TestCyclicChannelOffsets(t *testing.T) {
	period := int64(1000)
	c, err := NewCyclicChannel(1, 12, period, []int64{0, period / 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Update(0)
	if c.ITbs(0) == c.ITbs(1) {
		t.Fatal("offset UEs should be at different phases")
	}
	if c.ITbs(1) != 12 {
		t.Fatalf("UE with half-period offset should be at peak, got %d", c.ITbs(1))
	}
}

func TestCyclicChannelValidation(t *testing.T) {
	if _, err := NewCyclicChannel(1, 12, 0, nil); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewCyclicChannel(12, 1, 100, nil); err == nil {
		t.Error("min > max accepted")
	}
}

func TestTraceChannelReplayAndWrap(t *testing.T) {
	c, err := NewTraceChannel([][]int{{1, 5, 9}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		tti  int64
		iTbs int
	}{
		{0, 1}, {9, 1}, {10, 5}, {20, 9}, {30, 1}, {45, 5},
	}
	for _, w := range want {
		c.Update(w.tti)
		if got := c.ITbs(0); got != w.iTbs {
			t.Errorf("tti %d: iTbs = %d, want %d", w.tti, got, w.iTbs)
		}
	}
}

func TestTraceChannelValidation(t *testing.T) {
	if _, err := NewTraceChannel([][]int{{}}, 10); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := NewTraceChannel([][]int{{1}}, 0); err == nil {
		t.Error("zero step accepted")
	}
}

func TestTraceChannelDoesNotAliasInput(t *testing.T) {
	tr := [][]int{{3, 3, 3}}
	c, err := NewTraceChannel(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr[0][0] = 9
	c.Update(0)
	if c.ITbs(0) != 3 {
		t.Fatal("trace channel aliased caller slice")
	}
}

func TestMobilityChannelValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	bad := DefaultMobilityConfig(0)
	if _, err := NewMobilityChannel(bad, rng); err == nil {
		t.Error("zero UEs accepted")
	}
	bad = DefaultMobilityConfig(2)
	bad.MinSpeed = 5
	bad.MaxSpeed = 1
	if _, err := NewMobilityChannel(bad, rng); err == nil {
		t.Error("inverted speed range accepted")
	}
}

func TestMobilityChannelMovesUEs(t *testing.T) {
	cfg := DefaultMobilityConfig(4)
	c, err := NewMobilityChannel(cfg, sim.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	x0, y0 := c.Position(0)
	for tti := int64(0); tti < 10000; tti++ {
		c.Update(tti)
	}
	x1, y1 := c.Position(0)
	if x0 == x1 && y0 == y1 {
		t.Fatal("UE did not move over 10 s")
	}
	// Position stays inside the area.
	for ue := 0; ue < 4; ue++ {
		x, y := c.Position(ue)
		if x < 0 || x > mobilityAreaMeters || y < 0 || y > mobilityAreaMeters {
			t.Fatalf("UE %d escaped area: (%v, %v)", ue, x, y)
		}
	}
}

func TestMobilityChannelITbsVariesAndStaysInRange(t *testing.T) {
	cfg := DefaultMobilityConfig(8)
	c, err := NewMobilityChannel(cfg, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for tti := int64(0); tti < 120000; tti++ { // 2 minutes
		c.Update(tti)
		for ue := 0; ue < 8; ue++ {
			i := c.ITbs(ue)
			if i < MinITbs || i > MaxITbs {
				t.Fatalf("iTbs out of range: %d", i)
			}
			seen[i] = true
		}
	}
	if len(seen) < 5 {
		t.Fatalf("mobile channel too static: only %d distinct iTbs values", len(seen))
	}
}

func TestMobilityChannelDeterministic(t *testing.T) {
	cfg := DefaultMobilityConfig(3)
	a, err := NewMobilityChannel(cfg, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMobilityChannel(cfg, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	for tti := int64(0); tti < 5000; tti++ {
		a.Update(tti)
		b.Update(tti)
		for ue := 0; ue < 3; ue++ {
			if a.ITbs(ue) != b.ITbs(ue) {
				t.Fatalf("divergence at tti %d ue %d", tti, ue)
			}
		}
	}
}
