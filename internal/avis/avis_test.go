package avis

import (
	"math"
	"testing"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
)

func allocatorWithFlows(t *testing.T, n int) *Allocator {
	t.Helper()
	a := NewAllocator()
	for id := 0; id < n; id++ {
		if err := a.Register(id, has.SimLadder()); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func TestRegisterValidation(t *testing.T) {
	a := NewAllocator()
	if err := a.Register(1, has.Ladder{}); err == nil {
		t.Error("empty ladder accepted")
	}
	if err := a.Register(1, has.SimLadder()); err != nil {
		t.Fatal(err)
	}
	if err := a.Register(1, has.SimLadder()); err == nil {
		t.Error("duplicate accepted")
	}
	a.Unregister(1)
	if a.NumFlows() != 0 {
		t.Fatal("unregister failed")
	}
}

func TestPartition(t *testing.T) {
	a := allocatorWithFlows(t, 3)
	if got := a.Partition(1); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Partition(1) = %v, want 0.75", got)
	}
	if got := a.Partition(0); got != 1 {
		t.Errorf("Partition(0) = %v, want 1", got)
	}
	empty := NewAllocator()
	if got := empty.Partition(3); got != 0 {
		t.Errorf("empty Partition = %v", got)
	}
}

func TestRunEpochSnapsToLadder(t *testing.T) {
	a := allocatorWithFlows(t, 2)
	// Rich stats: 32 bytes/RB. With 2 flows and 2 data flows the video
	// slice is half the cell: 12500 RB/s each -> 3.2 Mbps sustainable
	// -> snapped down to the 3 Mbps ladder top.
	stats := map[int]core.FlowStats{
		0: {Bytes: 3_200_000, RBs: 100_000},
		1: {Bytes: 3_200_000, RBs: 100_000},
	}
	var out []Assignment
	for i := 0; i < 2000; i++ { // let the slow EWMA converge
		out = a.RunEpoch(stats, 2)
	}
	if len(out) != 2 {
		t.Fatalf("%d assignments", len(out))
	}
	for _, as := range out {
		if as.TargetLevel != 5 || as.GBRBps != 3_000_000 {
			t.Fatalf("assignment %+v, want ladder top", as)
		}
		if as.MBRBps < as.GBRBps {
			t.Fatalf("MBR %v below GBR %v", as.MBRBps, as.GBRBps)
		}
	}
}

func TestRunEpochPoorChannelGetsLowRate(t *testing.T) {
	a := allocatorWithFlows(t, 4)
	stats := map[int]core.FlowStats{}
	for id := 0; id < 4; id++ {
		stats[id] = core.FlowStats{Bytes: 20_000, RBs: 40_000} // 0.5 B/RB
	}
	var out []Assignment
	for i := 0; i < 3000; i++ {
		out = a.RunEpoch(stats, 4)
	}
	for _, as := range out {
		// 6250 RB/s * 0.5 B/RB * 8 = 25 kbps -> lowest rung.
		if as.TargetLevel != 0 {
			t.Fatalf("poor channel got level %d", as.TargetLevel)
		}
	}
}

func TestRunEpochEwmaIsSlow(t *testing.T) {
	a := allocatorWithFlows(t, 1)
	good := map[int]core.FlowStats{0: {Bytes: 3_000_000, RBs: 100_000}}
	for i := 0; i < 2000; i++ {
		a.RunEpoch(good, 0)
	}
	before := a.RunEpoch(good, 0)[0].TargetLevel
	// One epoch of terrible stats must not crater the assignment:
	// alpha=0.01 smooths hard (that is AVIS's lag).
	bad := map[int]core.FlowStats{0: {Bytes: 1_000, RBs: 100_000}}
	after := a.RunEpoch(bad, 0)[0].TargetLevel
	if after < before-1 {
		t.Fatalf("EWMA reacted too fast: %d -> %d in one epoch", before, after)
	}
}

func TestRunEpochUsesHintWhenIdle(t *testing.T) {
	a := allocatorWithFlows(t, 1)
	stats := map[int]core.FlowStats{0: {BytesPerRBHint: 40}}
	var out []Assignment
	for i := 0; i < 2000; i++ {
		out = a.RunEpoch(stats, 0)
	}
	if out[0].TargetLevel != 5 {
		t.Fatalf("hint ignored: level %d", out[0].TargetLevel)
	}
}

func TestRunEpochEmpty(t *testing.T) {
	a := NewAllocator()
	if out := a.RunEpoch(nil, 3); out != nil {
		t.Fatalf("assignments for empty allocator: %v", out)
	}
}

func TestRunEpochMoreDataFlowsShrinksVideo(t *testing.T) {
	mkstats := func() map[int]core.FlowStats {
		return map[int]core.FlowStats{0: {Bytes: 1_000_000, RBs: 100_000}}
	}
	few := allocatorWithFlows(t, 1)
	many := allocatorWithFlows(t, 1)
	var fewOut, manyOut []Assignment
	for i := 0; i < 2000; i++ {
		fewOut = few.RunEpoch(mkstats(), 1)
		manyOut = many.RunEpoch(mkstats(), 7)
	}
	if manyOut[0].GBRBps > fewOut[0].GBRBps {
		t.Fatalf("more data flows raised the video rate: %v > %v",
			manyOut[0].GBRBps, fewOut[0].GBRBps)
	}
}
