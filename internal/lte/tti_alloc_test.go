package lte

import (
	"math"
	"testing"

	"github.com/flare-sim/flare/internal/sim"
)

// TestRunTTIAllocatesNothing pins a busy TTI — channel update, the
// schedulable set, Allocate, the drain and the accounting tick — at no
// allocation, under every in-tree scheduler over every in-tree channel,
// with all 20 bearers backlogged (half of them GBR video). A per-TTI
// allocation in any Channel or Scheduler implementation, in pickMaxPF
// or in Bearer.tick fails here.
func TestRunTTIAllocatesNothing(t *testing.T) {
	const bearers = 20
	channels := []struct {
		name string
		make func() (Channel, error)
	}{
		{"static", func() (Channel, error) { return NewUniformStaticChannel(bearers, 12), nil }},
		{"cyclic", func() (Channel, error) {
			offsets := make([]int64, bearers)
			for i := range offsets {
				offsets[i] = int64(i) * 200
			}
			return NewCyclicChannel(1, 12, 4_000, offsets)
		}},
		{"trace", func() (Channel, error) {
			traces := make([][]int, bearers)
			for i := range traces {
				traces[i] = []int{2 + i%5, 12, 6, 9 - i%4}
			}
			return NewTraceChannel(traces, 50)
		}},
		{"mobility", func() (Channel, error) {
			return NewMobilityChannel(DefaultMobilityConfig(bearers), sim.NewRNG(1))
		}},
	}
	schedulers := []Scheduler{PFScheduler{}, TwoPhaseGBRScheduler{}, SlicedScheduler{VideoFraction: 0.5}}
	for _, ch := range channels {
		for _, sched := range schedulers {
			t.Run(ch.name+"/"+sched.Name(), func(t *testing.T) {
				c, err := ch.make()
				if err != nil {
					t.Fatal(err)
				}
				enb := NewENodeB(c, sched)
				bs := make([]*Bearer, bearers)
				for i := range bs {
					bs[i] = &Bearer{ID: i, UE: i, Class: ClassData}
					if i%2 == 0 {
						bs[i].Class, bs[i].GBRBits = ClassVideo, 1e6
					}
					if _, err := enb.AddBearer(bs[i]); err != nil {
						t.Fatal(err)
					}
				}
				tti := int64(0)
				run := func() {
					for _, b := range bs {
						if b.Backlog() < 1<<20 {
							b.Enqueue(1 << 22)
						}
					}
					enb.RunTTI(tti)
					tti++
				}
				for i := 0; i < 200; i++ { // grow the scheduler's scratch
					run()
				}
				allocs := math.Inf(1)
				for try := 0; try < 3 && allocs > 0; try++ { // best of three, against the runtime's own strays
					allocs = min(allocs, testing.AllocsPerRun(200, run))
				}
				if len(enb.active) != bearers {
					t.Fatalf("%d of %d bearers schedulable in the last TTI, want every one backlogged", len(enb.active), bearers)
				}
				if allocs != 0 {
					t.Errorf("%v allocations per TTI with %d backlogged bearers, want 0", allocs, bearers)
				}
			})
		}
	}
}
