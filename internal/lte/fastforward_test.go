package lte

import (
	"testing"

	"github.com/flare-sim/flare/internal/sim"
)

// Unit tests for the radio-layer fast-forward primitives: the idle
// aging a skip leaves to each bearer's next read, the channel CatchUp
// contract, and the ENodeB idle predicates.

// tickIdleReference is what k idle TTIs did before bearers aged on
// read: k literal idle ticks.
func tickIdleReference(b *Bearer, k int64) {
	for i := int64(0); i < k; i++ {
		b.tick(0)
	}
}

func bearerAccounting(b *Bearer) [4]float64 {
	return [4]float64{b.avgTput, b.fastTput, b.gbrCredit, b.mbrCredit}
}

// sameAccounting holds aged to the oracle's tolerances against ticked.
// The GBR and MBR rates here are dyadic per TTI, so the credits are
// exact on both sides.
func sameAccounting(aged, ticked *Bearer) bool {
	return closeAvg(aged.avgTput, ticked.avgTput) && closeAvg(aged.fastTput, ticked.fastTput) &&
		aged.gbrCredit == ticked.gbrCredit && aged.mbrCredit == ticked.mbrCredit &&
		aged.mbrPrimed == ticked.mbrPrimed
}

func TestTickIdleMatchesIteratedTicks(t *testing.T) {
	cases := []struct {
		name string
		mk   func() *Bearer
	}{
		{"plain", func() *Bearer { return &Bearer{} }},
		{"gbr", func() *Bearer { return &Bearer{Class: ClassVideo, GBRBits: 2.5e6} }},
		{"mbr", func() *Bearer { return &Bearer{Class: ClassVideo, MBRBits: 4e6} }},
		{"gbr+mbr", func() *Bearer { return &Bearer{Class: ClassVideo, GBRBits: 1e6, MBRBits: 3e6} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range []int64{0, 1, 7, 100, 5000, 200_000, 1_000_000} {
				aged, ticked := tc.mk(), tc.mk()
				// Warm both with identical traffic so the EWMAs and
				// credits start mid-decay, not at zero.
				for i := 0; i < 50; i++ {
					aged.tick(12_000)
					ticked.tick(12_000)
				}
				if k > 0 {
					aged.ageIdle(k)
				}
				tickIdleReference(ticked, k)
				if !sameAccounting(aged, ticked) {
					t.Fatalf("k=%d: aging diverged from %d iterated ticks:\naged   %v\nticked %v",
						k, k, bearerAccounting(aged), bearerAccounting(ticked))
				}
			}
		})
	}
}

func TestTickIdleThenResumeMatches(t *testing.T) {
	// A span aged in one step and followed by live traffic must leave
	// the bearer where the per-TTI path would, to the oracle's
	// tolerances.
	aged, ticked := &Bearer{Class: ClassVideo, GBRBits: 2e6, MBRBits: 6e6}, &Bearer{Class: ClassVideo, GBRBits: 2e6, MBRBits: 6e6}
	for i := 0; i < 30; i++ {
		aged.tick(8_000)
		ticked.tick(8_000)
	}
	aged.ageIdle(300)
	tickIdleReference(ticked, 300)
	for i := 0; i < 30; i++ {
		aged.tick(5_000)
		ticked.tick(5_000)
	}
	if !sameAccounting(aged, ticked) {
		t.Fatalf("post-resume state diverged:\naged   %v\nticked %v",
			bearerAccounting(aged), bearerAccounting(ticked))
	}
}

func TestMobilityCatchUpMatchesStepwise(t *testing.T) {
	cfg := DefaultMobilityConfig(3)
	mkPair := func() (*MobilityChannel, *MobilityChannel) {
		a, err := NewMobilityChannel(cfg, sim.NewRNG(99))
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewMobilityChannel(cfg, sim.NewRNG(99))
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	spans := []struct{ from, to int64 }{
		{0, 1}, {0, 999}, {0, 1000}, {0, 1001},
		{500, 2500}, {999, 1001}, {1000, 3000}, {123, 45_678},
	}
	for _, span := range spans {
		fast, slow := mkPair()
		// Walk both to the skip start the naive way.
		for tti := int64(0); tti <= span.from; tti++ {
			fast.Update(tti)
			slow.Update(tti)
		}
		// Naive: update every TTI through the span. Fast: CatchUp over the
		// gap, then the kernel's own Update at the wake TTI.
		for tti := span.from + 1; tti <= span.to; tti++ {
			slow.Update(tti)
		}
		fast.CatchUp(span.from, span.to)
		fast.Update(span.to)
		for ue := 0; ue < 3; ue++ {
			if fast.ITbs(ue) != slow.ITbs(ue) {
				t.Fatalf("span %+v: UE %d iTbs diverged: fast %d, slow %d",
					span, ue, fast.ITbs(ue), slow.ITbs(ue))
			}
		}
		// The RNG streams must be in lockstep too, or the next mobility
		// step after the skip would diverge.
		for tti := span.to + 1; tti <= span.to+3000; tti++ {
			fast.Update(tti)
			slow.Update(tti)
		}
		for ue := 0; ue < 3; ue++ {
			if fast.ITbs(ue) != slow.ITbs(ue) {
				t.Fatalf("span %+v: UE %d diverged after resume", span, ue)
			}
		}
	}
}

func TestStatelessChannelsAreCatchUppable(t *testing.T) {
	for _, tc := range []struct {
		name string
		ch   Channel
	}{
		{"static", NewUniformStaticChannel(2, 10)},
		{"cyclic", mustCyclic(t)},
	} {
		if _, ok := tc.ch.(ChannelCatchUp); !ok {
			t.Fatalf("%s channel does not implement ChannelCatchUp", tc.name)
		}
	}
}

func mustCyclic(t *testing.T) Channel {
	t.Helper()
	ch, err := NewCyclicChannel(4, 12, 1000, []int64{0, 250})
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestENodeBIdleTracksBacklog(t *testing.T) {
	enb := NewENodeB(NewUniformStaticChannel(2, 12), PFScheduler{})
	b := &Bearer{ID: 0, UE: 0, Class: ClassVideo}
	if _, err := enb.AddBearer(b); err != nil {
		t.Fatal(err)
	}
	if !enb.Idle() {
		t.Fatal("empty cell not idle")
	}
	b.Enqueue(1000)
	if enb.Idle() {
		t.Fatal("cell with backlog reported idle")
	}
	for tti := int64(0); !enb.Idle() && tti < 1000; tti++ {
		enb.RunTTI(tti)
	}
	if !enb.Idle() {
		t.Fatal("cell did not drain")
	}
}

func TestFastForwardIdleMatchesNaiveTicks(t *testing.T) {
	mk := func() (*ENodeB, *Bearer) {
		enb := NewENodeB(NewUniformStaticChannel(1, 12), PFScheduler{})
		b := &Bearer{ID: 0, UE: 0, Class: ClassVideo, GBRBits: 1.5e6}
		if _, err := enb.AddBearer(b); err != nil {
			t.Fatal(err)
		}
		return enb, b
	}
	fastE, fastB := mk()
	slowE, slowB := mk()
	// Serve identical traffic, then run both until the cell drains: the
	// fast-forward contract only covers cells that are actually idle.
	for tti := int64(0); tti < 40; tti++ {
		fastB.Enqueue(2000)
		slowB.Enqueue(2000)
		fastE.RunTTI(tti)
		slowE.RunTTI(tti)
	}
	idleAt := int64(40)
	for ; !fastE.Idle() && idleAt < 10_000; idleAt++ {
		fastE.RunTTI(idleAt)
		slowE.RunTTI(idleAt)
	}
	if !fastE.Idle() || !slowE.Idle() {
		t.Fatal("cell did not drain")
	}
	const wake = 50_000
	// Naive: run every idle TTI. Fast: skip them. Then bytes arrive and
	// both run the wake TTI: the bytes age both bearers over the same
	// idle span, which must leave them bit-identical.
	for tti := idleAt; tti < wake; tti++ {
		slowE.RunTTI(tti)
	}
	if !fastE.CanFastForward() {
		t.Fatal("static channel cell must support fast-forward")
	}
	fastE.FastForwardIdle(idleAt-1, wake)
	fastB.Enqueue(500)
	slowB.Enqueue(500)
	fastE.RunTTI(wake)
	slowE.RunTTI(wake)
	if bearerAccounting(fastB) != bearerAccounting(slowB) {
		t.Fatalf("fast-forwarded bearer diverged:\nfast %v\nslow %v",
			bearerAccounting(fastB), bearerAccounting(slowB))
	}
}
