package lte

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/flare-sim/flare/internal/sim"
)

// makeFlows builds flow states with the given backlogs at a common iTbs.
func makeFlows(iTbs int, backlogs ...int64) ([]*FlowState, []*Bearer) {
	bearers := make([]*Bearer, len(backlogs))
	flows := make([]*FlowState, len(backlogs))
	states := make([]FlowState, len(backlogs))
	for i, bl := range backlogs {
		bearers[i] = &Bearer{ID: i, UE: i, Class: ClassData}
		bearers[i].Enqueue(bl)
		states[i] = FlowState{
			Bearer:    bearers[i],
			ITbs:      iTbs,
			BitsPerRB: BitsPerRB(iTbs),
			remaining: bl,
		}
		flows[i] = &states[i]
	}
	return flows, bearers
}

func totalRBs(flows []*FlowState) int {
	sum := 0
	for _, f := range flows {
		sum += f.Granted()
	}
	return sum
}

func TestPFAllocatesAllRBsUnderLoad(t *testing.T) {
	flows, _ := makeFlows(10, 1<<20, 1<<20, 1<<20)
	PFScheduler{}.Allocate(0, flows, RBGSizes())
	if got := totalRBs(flows); got != NumRB {
		t.Fatalf("allocated %d RBs, want all %d", got, NumRB)
	}
}

func TestPFStopsWhenBacklogCovered(t *testing.T) {
	// A tiny backlog should not soak up the whole band.
	flows, _ := makeFlows(10, 100)
	PFScheduler{}.Allocate(0, flows, RBGSizes())
	granted := flows[0].Granted()
	if granted == 0 {
		t.Fatal("flow with backlog got nothing")
	}
	// 100 bytes fits in one RBG at iTbs 10.
	if granted > 2*RBGSize {
		t.Fatalf("tiny backlog got %d RBs", granted)
	}
}

func TestPFNoBacklogNoAllocation(t *testing.T) {
	flows, _ := makeFlows(10, 0, 0)
	PFScheduler{}.Allocate(0, flows, RBGSizes())
	if got := totalRBs(flows); got != 0 {
		t.Fatalf("allocated %d RBs to empty queues", got)
	}
}

func TestPFLongRunFairnessEqualChannels(t *testing.T) {
	// Two greedy flows at the same MCS should converge to ~equal RBs.
	ch := NewUniformStaticChannel(2, 10)
	enb := NewENodeB(ch, PFScheduler{})
	var bearers []*Bearer
	for i := 0; i < 2; i++ {
		b := &Bearer{ID: i, UE: i, Class: ClassData}
		if _, err := enb.AddBearer(b); err != nil {
			t.Fatal(err)
		}
		bearers = append(bearers, b)
	}
	for tti := int64(0); tti < 5000; tti++ {
		for _, b := range bearers {
			if b.Backlog() < 1<<16 {
				b.Enqueue(1 << 16)
			}
		}
		enb.RunTTI(tti)
	}
	s0 := bearers[0].TotalStats()
	s1 := bearers[1].TotalStats()
	ratio := float64(s0.Bytes) / float64(s1.Bytes)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("PF unfair between equal flows: %d vs %d bytes", s0.Bytes, s1.Bytes)
	}
}

func TestPFRespectsMBR(t *testing.T) {
	ch := NewUniformStaticChannel(2, 10)
	enb := NewENodeB(ch, PFScheduler{})
	capped := &Bearer{ID: 0, UE: 0, Class: ClassVideo, MBRBits: 500_000}
	free := &Bearer{ID: 1, UE: 1, Class: ClassData}
	for _, b := range []*Bearer{capped, free} {
		if _, err := enb.AddBearer(b); err != nil {
			t.Fatal(err)
		}
	}
	for tti := int64(0); tti < 10000; tti++ {
		capped.Enqueue(1 << 16)
		free.Enqueue(1 << 16)
		enb.RunTTI(tti)
	}
	gotBits := float64(capped.TotalStats().Bytes) * 8 / 10 // bits/s over 10 s
	if gotBits > 650_000 {
		t.Fatalf("MBR-capped flow got %v bits/s, cap 500k", gotBits)
	}
	if gotBits < 300_000 {
		t.Fatalf("MBR-capped flow starved at %v bits/s", gotBits)
	}
}

func TestTwoPhaseGBRProtectsVideoAndSharesRest(t *testing.T) {
	ch := NewUniformStaticChannel(3, 10)
	enb := NewENodeB(ch, TwoPhaseGBRScheduler{})
	video := &Bearer{ID: 0, UE: 0, Class: ClassVideo, GBRBits: 3e6}
	d1 := &Bearer{ID: 1, UE: 1, Class: ClassData}
	d2 := &Bearer{ID: 2, UE: 2, Class: ClassData}
	for _, b := range []*Bearer{video, d1, d2} {
		if _, err := enb.AddBearer(b); err != nil {
			t.Fatal(err)
		}
	}
	const ttis = 20000
	for tti := int64(0); tti < ttis; tti++ {
		video.Enqueue(1 << 16)
		d1.Enqueue(1 << 16)
		d2.Enqueue(1 << 16)
		enb.RunTTI(tti)
	}
	secs := float64(ttis) / 1000
	videoBits := float64(video.TotalStats().Bytes) * 8 / secs
	if videoBits < 2.8e6 {
		t.Fatalf("two-phase GBR under-served video: %v bits/s, GBR 3e6", videoBits)
	}
	// Data flows split the remainder roughly evenly.
	b1 := float64(d1.TotalStats().Bytes)
	b2 := float64(d2.TotalStats().Bytes)
	if b1 == 0 || b2 == 0 {
		t.Fatal("data flow starved")
	}
	if r := b1 / b2; r < 0.8 || r > 1.25 {
		t.Fatalf("data flows unbalanced: %v vs %v", b1, b2)
	}
}

func TestTwoPhaseGBRIdleVideoLeavesRoomForData(t *testing.T) {
	// Video bearer with GBR but no backlog: data must get the full cell.
	ch := NewUniformStaticChannel(2, 10)
	enb := NewENodeB(ch, TwoPhaseGBRScheduler{})
	video := &Bearer{ID: 0, UE: 0, Class: ClassVideo, GBRBits: 5e6}
	data := &Bearer{ID: 1, UE: 1, Class: ClassData}
	for _, b := range []*Bearer{video, data} {
		if _, err := enb.AddBearer(b); err != nil {
			t.Fatal(err)
		}
	}
	const ttis = 5000
	for tti := int64(0); tti < ttis; tti++ {
		data.Enqueue(1 << 16)
		enb.RunTTI(tti)
	}
	dataBits := float64(data.TotalStats().Bytes) * 8 / (ttis / 1000)
	cell := CellRateBps(10)
	if dataBits < 0.95*cell {
		t.Fatalf("data only got %v of %v bits/s with idle video", dataBits, cell)
	}
}

func TestSlicedSchedulerDoesNotBorrow(t *testing.T) {
	// Video slice 60%, but no video backlog: those RBGs idle (the AVIS
	// under-utilisation the paper criticises).
	ch := NewUniformStaticChannel(2, 10)
	enb := NewENodeB(ch, SlicedScheduler{VideoFraction: 0.6})
	video := &Bearer{ID: 0, UE: 0, Class: ClassVideo}
	data := &Bearer{ID: 1, UE: 1, Class: ClassData}
	for _, b := range []*Bearer{video, data} {
		if _, err := enb.AddBearer(b); err != nil {
			t.Fatal(err)
		}
	}
	const ttis = 5000
	for tti := int64(0); tti < ttis; tti++ {
		data.Enqueue(1 << 16)
		enb.RunTTI(tti)
	}
	dataBits := float64(data.TotalStats().Bytes) * 8 / (ttis / 1000)
	cell := CellRateBps(10)
	// Data is confined to ~40% of the band even though video is idle.
	if dataBits > 0.5*cell {
		t.Fatalf("sliced scheduler borrowed idle video RBs: data %v of %v", dataBits, cell)
	}
	if dataBits < 0.3*cell {
		t.Fatalf("data slice under-served: %v of %v", dataBits, cell)
	}
}

func TestSchedulersNeverOverAllocateProperty(t *testing.T) {
	scheds := []Scheduler{
		PFScheduler{},
		TwoPhaseGBRScheduler{},
		SlicedScheduler{VideoFraction: 0.5},
	}
	check := func(b0, b1, b2 uint16, iTbsRaw uint8) bool {
		iTbs := int(iTbsRaw) % (MaxITbs + 1)
		for _, s := range scheds {
			flows, _ := makeFlows(iTbs, int64(b0), int64(b1), int64(b2))
			flows[0].Bearer.Class = ClassVideo
			flows[0].Bearer.GBRBits = 1e6
			s.Allocate(0, flows, RBGSizes())
			if totalRBs(flows) > NumRB {
				return false
			}
			for _, f := range flows {
				if f.Granted() < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPFMetricFavorsBetterChannel(t *testing.T) {
	flows, _ := makeFlows(5, 1<<20)
	good, _ := makeFlows(20, 1<<20)
	// Same average throughput, better channel wins.
	if flows[0].pfMetric() >= good[0].pfMetric() {
		t.Fatal("PF metric should favor the better channel at equal average")
	}
}

func TestBearerEnqueueDropTail(t *testing.T) {
	b := &Bearer{ID: 0, QueueLimit: 100}
	if got := b.Enqueue(60); got != 60 {
		t.Fatalf("accepted %d, want 60", got)
	}
	if got := b.Enqueue(60); got != 40 {
		t.Fatalf("accepted %d beyond limit, want 40", got)
	}
	if b.Backlog() != 100 {
		t.Fatalf("backlog = %d, want 100", b.Backlog())
	}
	if got := b.Enqueue(-5); got != 0 {
		t.Fatalf("negative enqueue accepted %d", got)
	}
}

func TestBearerCollectWindowResets(t *testing.T) {
	b := &Bearer{ID: 0}
	b.Enqueue(1000)
	b.serve(400, 3)
	w := b.CollectWindow()
	if w.Bytes != 400 || w.RBs != 3 {
		t.Fatalf("window = %+v", w)
	}
	w = b.CollectWindow()
	if w.Bytes != 0 || w.RBs != 0 {
		t.Fatalf("window not reset: %+v", w)
	}
	if tot := b.TotalStats(); tot.Bytes != 400 || tot.RBs != 3 {
		t.Fatalf("totals wrong: %+v", tot)
	}
}

func TestBearerServeBoundedByQueue(t *testing.T) {
	b := &Bearer{ID: 0}
	b.Enqueue(100)
	var delivered int64
	b.OnDeliver = sim.HandlerFunc(func(n int64) { delivered += n })
	served := b.serve(1000, 5)
	if served != 100 {
		t.Fatalf("served %d, want 100", served)
	}
	if delivered != 100 {
		t.Fatalf("OnDeliver saw %d, want 100", delivered)
	}
	if b.Backlog() != 0 {
		t.Fatalf("backlog = %d after full drain", b.Backlog())
	}
}

func TestBearerTputAveragesConverge(t *testing.T) {
	b := &Bearer{ID: 0}
	// Serve a steady 1000 bits per TTI -> 1 Mbps.
	for i := 0; i < 2000; i++ {
		b.tick(1000)
	}
	if math.Abs(b.AvgTputBits()-1e6) > 1e4 {
		t.Fatalf("avgTput = %v, want ~1e6", b.AvgTputBits())
	}
	if math.Abs(b.FastTputBits()-1e6) > 1e4 {
		t.Fatalf("fastTput = %v, want ~1e6", b.FastTputBits())
	}
}

func TestBearerClassString(t *testing.T) {
	if ClassVideo.String() != "video" || ClassData.String() != "data" {
		t.Fatal("class strings wrong")
	}
	if BearerClass(0).String() != "BearerClass(0)" {
		t.Fatal("unknown class string wrong")
	}
}

func TestMBRTokenBucketStrictCap(t *testing.T) {
	// With a strict token bucket, delivered throughput must never
	// average above the MBR even when the cell has spare capacity.
	ch := NewUniformStaticChannel(1, 20) // ~22 Mbps cell
	enb := NewENodeB(ch, PFScheduler{})
	b := &Bearer{ID: 0, UE: 0, Class: ClassVideo, MBRBits: 2e6}
	if _, err := enb.AddBearer(b); err != nil {
		t.Fatal(err)
	}
	const ttis = 20000
	for tti := int64(0); tti < ttis; tti++ {
		b.Enqueue(1 << 16)
		enb.RunTTI(tti)
	}
	gotBits := float64(b.TotalStats().Bytes) * 8 / (ttis / 1000)
	if gotBits > 2e6*1.02 {
		t.Fatalf("MBR token bucket leaked: %.0f bits/s for a 2e6 cap", gotBits)
	}
	if gotBits < 2e6*0.9 {
		t.Fatalf("MBR under-delivered: %.0f bits/s", gotBits)
	}
}

func TestMBRRemovalRestoresFullRate(t *testing.T) {
	ch := NewUniformStaticChannel(1, 10)
	enb := NewENodeB(ch, PFScheduler{})
	b := &Bearer{ID: 0, UE: 0, Class: ClassVideo, MBRBits: 1e6}
	if _, err := enb.AddBearer(b); err != nil {
		t.Fatal(err)
	}
	for tti := int64(0); tti < 5000; tti++ {
		b.Enqueue(1 << 16)
		enb.RunTTI(tti)
	}
	capped := b.TotalStats().Bytes
	if err := enb.SetMBR(0, 0); err != nil {
		t.Fatal(err)
	}
	for tti := int64(5000); tti < 10000; tti++ {
		b.Enqueue(1 << 16)
		enb.RunTTI(tti)
	}
	uncapped := b.TotalStats().Bytes - capped
	if float64(uncapped) < 3*float64(capped) {
		t.Fatalf("removing MBR did not restore rate: %d then %d bytes", capped, uncapped)
	}
}
