package lte

import (
	"testing"
)

func TestENodeBAddBearerValidation(t *testing.T) {
	enb := NewENodeB(NewUniformStaticChannel(2, 10), PFScheduler{})
	if _, err := enb.AddBearer(&Bearer{ID: 0, UE: 5}); err == nil {
		t.Fatal("bearer with out-of-range UE accepted")
	}
	if _, err := enb.AddBearer(&Bearer{ID: 0, UE: -1}); err == nil {
		t.Fatal("bearer with negative UE accepted")
	}
	if _, err := enb.AddBearer(&Bearer{ID: 0, UE: 1}); err != nil {
		t.Fatalf("valid bearer rejected: %v", err)
	}
	if len(enb.Bearers()) != 1 {
		t.Fatalf("Bearers() has %d entries", len(enb.Bearers()))
	}
}

func TestENodeBBearerByIDAndGBR(t *testing.T) {
	enb := NewENodeB(NewUniformStaticChannel(2, 10), PFScheduler{})
	b := &Bearer{ID: 7, UE: 0, Class: ClassVideo}
	if _, err := enb.AddBearer(b); err != nil {
		t.Fatal(err)
	}
	if enb.BearerByID(7) != b {
		t.Fatal("BearerByID(7) failed")
	}
	if enb.BearerByID(99) != nil {
		t.Fatal("BearerByID(99) should be nil")
	}
	if err := enb.SetGBR(7, 2e6); err != nil {
		t.Fatal(err)
	}
	if b.GBRBits != 2e6 {
		t.Fatalf("GBR = %v", b.GBRBits)
	}
	if err := enb.SetGBR(99, 1); err == nil {
		t.Fatal("SetGBR on missing bearer succeeded")
	}
	if err := enb.SetMBR(7, 3e6); err != nil {
		t.Fatal(err)
	}
	if b.MBRBits != 3e6 {
		t.Fatalf("MBR = %v", b.MBRBits)
	}
	if err := enb.SetMBR(99, 1); err == nil {
		t.Fatal("SetMBR on missing bearer succeeded")
	}
}

func TestENodeBThroughputMatchesTBS(t *testing.T) {
	// A single greedy flow must receive exactly the cell rate.
	const iTbs = 8
	enb := NewENodeB(NewUniformStaticChannel(1, iTbs), PFScheduler{})
	b := &Bearer{ID: 0, UE: 0, Class: ClassData}
	if _, err := enb.AddBearer(b); err != nil {
		t.Fatal(err)
	}
	const ttis = 2000
	for tti := int64(0); tti < ttis; tti++ {
		b.Enqueue(1 << 16)
		enb.RunTTI(tti)
	}
	wantBytes := int64(TBSBytes(iTbs, NumRB)) * ttis
	got := b.TotalStats().Bytes
	if diff := float64(got-wantBytes) / float64(wantBytes); diff < -0.01 || diff > 0.01 {
		t.Fatalf("served %d bytes, want ~%d", got, wantBytes)
	}
}

func TestENodeBConservation(t *testing.T) {
	// Served bytes never exceed enqueued bytes; RBs never exceed 50/TTI.
	enb := NewENodeB(NewUniformStaticChannel(3, 12), PFScheduler{})
	var bearers []*Bearer
	for i := 0; i < 3; i++ {
		b := &Bearer{ID: i, UE: i, Class: ClassData}
		if _, err := enb.AddBearer(b); err != nil {
			t.Fatal(err)
		}
		bearers = append(bearers, b)
	}
	var enqueued, served int64
	for tti := int64(0); tti < 1000; tti++ {
		for _, b := range bearers {
			enqueued += b.Enqueue(500)
		}
		res := enb.RunTTI(tti)
		served += res.ServedBytes
		if res.UsedRBs > NumRB {
			t.Fatalf("tti %d used %d RBs", tti, res.UsedRBs)
		}
	}
	var backlog int64
	for _, b := range bearers {
		backlog += b.Backlog()
	}
	if served+backlog != enqueued {
		t.Fatalf("byte conservation violated: served %d + backlog %d != enqueued %d",
			served, backlog, enqueued)
	}
}

func TestENodeBWindowStatsMatchTotals(t *testing.T) {
	enb := NewENodeB(NewUniformStaticChannel(1, 10), PFScheduler{})
	b := &Bearer{ID: 0, UE: 0, Class: ClassVideo}
	if _, err := enb.AddBearer(b); err != nil {
		t.Fatal(err)
	}
	var winBytes, winRBs int64
	for tti := int64(0); tti < 3000; tti++ {
		b.Enqueue(2000)
		enb.RunTTI(tti)
		if tti%500 == 499 {
			w := b.CollectWindow()
			winBytes += w.Bytes
			winRBs += w.RBs
		}
	}
	w := b.CollectWindow()
	winBytes += w.Bytes
	winRBs += w.RBs
	tot := b.TotalStats()
	if winBytes != tot.Bytes || winRBs != tot.RBs {
		t.Fatalf("windows (%d, %d) != totals (%d, %d)", winBytes, winRBs, tot.Bytes, tot.RBs)
	}
}

func TestENodeBAccessors(t *testing.T) {
	enb := NewENodeB(NewUniformStaticChannel(1, 10), PFScheduler{})
	if enb.Scheduler().Name() != "pf" {
		t.Fatal("wrong scheduler")
	}
	if enb.Channel().NumUEs() != 1 {
		t.Fatal("channel accessor broken")
	}
}

func TestENodeBBetterChannelGetsMoreBytesSameRBs(t *testing.T) {
	// Two greedy UEs, one at iTbs 4 and one at iTbs 20. PF equalises
	// RB share over time, so the better channel gets more bytes.
	enb := NewENodeB(NewStaticChannel(4, 20), PFScheduler{})
	slow := &Bearer{ID: 0, UE: 0, Class: ClassData}
	fast := &Bearer{ID: 1, UE: 1, Class: ClassData}
	for _, b := range []*Bearer{slow, fast} {
		if _, err := enb.AddBearer(b); err != nil {
			t.Fatal(err)
		}
	}
	for tti := int64(0); tti < 10000; tti++ {
		slow.Enqueue(1 << 16)
		fast.Enqueue(1 << 16)
		enb.RunTTI(tti)
	}
	sSlow, sFast := slow.TotalStats(), fast.TotalStats()
	if sFast.Bytes <= sSlow.Bytes {
		t.Fatalf("better channel got fewer bytes: %d vs %d", sFast.Bytes, sSlow.Bytes)
	}
	rbRatio := float64(sSlow.RBs) / float64(sFast.RBs)
	if rbRatio < 0.8 || rbRatio > 1.25 {
		t.Fatalf("PF RB shares unbalanced: %d vs %d", sSlow.RBs, sFast.RBs)
	}
}
