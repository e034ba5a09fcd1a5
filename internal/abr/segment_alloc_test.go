package abr

import (
	"math"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/sim"
	"github.com/flare-sim/flare/internal/transport"
)

// segmentEnv is a transport.Env under the test's hand: the clock moves
// when the test says so and timers are dropped, so the only thing that
// runs is what the test delivers.
type segmentEnv struct{ tti int64 }

func (e *segmentEnv) NowTTI() int64                                { return e.tti }
func (e *segmentEnv) Schedule(int64, func())                       {}
func (e *segmentEnv) ScheduleArg(int64, func(int64), int64)        {}
func (e *segmentEnv) ScheduleHandler(int64, sim.Handler)           {}
func (e *segmentEnv) ScheduleHandlerArg(int64, sim.Handler, int64) {}

// TestCompletedSegmentAllocatesNothing pins what a session costs per
// completed segment: nothing. Whole segments are delivered straight to
// the player's delivery hook (has.Player.onBytes), one every segment
// duration so the buffer holds steady; each completion is accounted,
// fed to the adapter — the FLARE plugin and FESTIVE, whose windows are
// the per-segment state that exists — and followed by the next
// request. 4096 segments cross every doubling a hidden per-segment
// append would go through, and not one allocation may happen.
func TestCompletedSegmentAllocatesNothing(t *testing.T) {
	plugin := NewFlarePlugin()
	plugin.Deliver(800_000, 1)
	for _, tc := range []struct {
		name    string
		adapter has.Adapter
	}{
		{"flare-plugin", plugin},
		{"festive", NewFestive(sim.NewRNG(1))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := &segmentEnv{}
			flow, err := transport.NewFlow(env, &lte.Bearer{Class: lte.ClassVideo}, transport.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			mpd, err := has.NewMPD(has.FineLadder(), 2*time.Second, 0) // endless presentation
			if err != nil {
				t.Fatal(err)
			}
			p, err := has.NewPlayer(env, flow, mpd, tc.adapter, has.DefaultPlayerConfig())
			if err != nil {
				t.Fatal(err)
			}
			p.Start()
			const segments = 4096
			run := func() {
				for i := 0; i < segments; i++ {
					env.tti += 2000
					flow.OnDelivered.Fire(1 << 40)
				}
			}
			// Best of three: a malloc of the runtime's own (a stray timer,
			// a GC worker) can land in one counted run, not in all of them.
			allocs, tries := math.Inf(1), 0
			for ; tries < 3 && allocs != 0; tries++ {
				allocs = min(allocs, testing.AllocsPerRun(1, run)) // one warm-up run, one counted
			}
			if got, want := p.Tally().Segments(), 2*segments*tries; got != want {
				t.Fatalf("%d segments completed, want %d: the harness is not completing one per delivery", got, want)
			}
			if allocs != 0 {
				t.Errorf("%v allocations over %d completed segments, want 0", allocs, segments)
			}
		})
	}
}

// TestFestiveSwitchWindowStaysInPlace: the switch window holds the most
// recent festiveSwitchWindow+1 levels, oldest first, in the array NewFestive
// sized — never a re-allocated one, however long the session.
func TestFestiveSwitchWindowStaysInPlace(t *testing.T) {
	f := NewFestive(sim.NewRNG(1))
	first := &f.lastQs[:1][0]
	var want []int
	for i := 0; i < 1000; i++ {
		q := (i * 7) % 5
		f.OnSegmentComplete(has.SegmentRecord{Quality: q, ThroughputBps: 1e6})
		if want = append(want, q); len(want) > festiveSwitchWindow+1 {
			want = want[1:]
		}
		if len(f.lastQs) != len(want) {
			t.Fatalf("segment %d: window holds %d levels, want %d", i, len(f.lastQs), len(want))
		}
		for j := range want {
			if f.lastQs[j] != want[j] {
				t.Fatalf("segment %d: window %v, want %v", i, f.lastQs, want)
			}
		}
	}
	if &f.lastQs[0] != first {
		t.Error("the switch window moved off the array NewFestive sized")
	}
}
