package cellsim

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/oneapi"
	"github.com/flare-sim/flare/internal/sim"
)

// churnConfig is the declared-but-mostly-idle cell: `sessions` FLARE
// sessions arrive uniformly over the run and stay for Pareto (shape 2.5)
// durations whose mean keeps about `live` of them live, so at any TTI
// most declared bearers are idle — not yet arrived or departed, and in
// either case outside every per-TTI pass. Departures land wherever the Pareto draw puts them, which is mid-download more
// often than not.
func churnConfig(seed uint64, sessions int, duration time.Duration, live float64) Config {
	cfg := DefaultConfig(SchemeFLARE)
	cfg.Seed = seed
	cfg.Duration = duration
	cfg.SegmentDuration = 2 * time.Second
	cfg.Flare.BAI = time.Second
	cfg.Channel = ChannelSpec{Kind: ChannelStatic, StaticITbs: 12}

	const shape = 2.5
	horizon := duration.Seconds()
	xm := live * horizon / float64(sessions) * (shape - 1) / shape
	rng := sim.NewRNG(seed + 1)
	arrivals := make([]float64, sessions)
	for i := range arrivals {
		arrivals[i] = rng.Float64() * horizon
	}
	sort.Float64s(arrivals)
	cfg.NumVideo = sessions
	cfg.VideoArrivals = make([]time.Duration, sessions)
	cfg.VideoDepartures = make([]time.Duration, sessions)
	for i, at := range arrivals {
		dur := xm * math.Pow(1-rng.Float64(), -1/shape)
		cfg.VideoArrivals[i] = time.Duration(at * float64(time.Second))
		if at+dur < horizon {
			cfg.VideoDepartures[i] = time.Duration((at + dur) * float64(time.Second))
		}
	}
	return cfg
}

// TestCellAssemblyAllocsPerSession pins what one more declared session
// costs cellsim.New in heap allocations, for FLARE and for the two
// baselines with per-session state of their own. The per-session
// objects (bearer, transport flow, player, driver flow, plugin and its
// history) come out of per-cell slabs, the MPD and its ladder are shared
// (FLARE's controller and the AVIS allocator keep the ladder they are
// registered with), every event and delivery hook is a pointer view of
// its slab slot, and FLARE's controller keeps a session as a row of its
// flow table, which the driver's group open sizes once for the whole
// group, so a FLARE session allocates nothing at all. A per-session
// record, method value, Sprintf, Errorf or ladder copy creeping back,
// or the flow table regrowing, shows up here. AVIS still keeps a record
// per flow in a map, and each FESTIVE client is an adapter of its own;
// their rows pin what that costs today, so it cannot grow unnoticed.
func TestCellAssemblyAllocsPerSession(t *testing.T) {
	for _, c := range []struct {
		scheme            Scheme
		perSession, total float64 // bounds
	}{
		// Measured 0.00 per added session; the total's bound is the
		// build's own figure (allocbounds_*_test.go). A per-session
		// object of any kind adds a whole one, a regrown table a
		// fraction.
		{SchemeFLARE, 0, flareAssemblyAllocs},
		// Measured 4.03 and 835: each client's throughput adapter and
		// its history, and the allocator's record of the flow.
		{SchemeAVIS, 4.1, 900},
		// Measured 5.00 and 1,020: each client's FESTIVE adapter, its
		// history and its RNG stream.
		{SchemeFESTIVE, 5.1, 1100},
	} {
		t.Run(c.scheme.String(), func(t *testing.T) {
			allocs := func(sessions int) float64 {
				cfg := churnConfig(1, sessions, 400*time.Second, 12)
				cfg.Scheme = c.scheme
				return testing.AllocsPerRun(10, func() {
					if _, err := New(cfg); err != nil {
						t.Fatal(err)
					}
				})
			}
			small, large := allocs(20), allocs(200)
			perSession := (large - small) / 180
			t.Logf("cellsim.New: %.0f allocs at 20 sessions, %.0f at 200, %.2f per added session", small, large, perSession)
			if perSession > c.perSession {
				t.Errorf("each added session costs %.2f allocations in cellsim.New, want <= %v", perSession, c.perSession)
			}
			if large > c.total {
				t.Errorf("cellsim.New on the 200-session churn cell makes %.0f allocations, want <= %v", large, c.total)
			}
		})
	}
}

// metroCell is one cell of the ledger's metro_shared workload: 24 video
// and 2 data flows on the 12-rung ladder, FLARE on a static channel.
func metroCell(seed uint64, duration time.Duration) Config {
	cfg := DefaultConfig(SchemeFLARE)
	cfg.Seed = seed
	cfg.Duration = duration
	cfg.SegmentDuration = 2 * time.Second
	cfg.Flare.BAI = time.Second
	cfg.Channel = ChannelSpec{Kind: ChannelStatic, StaticITbs: 16}
	cfg.NumVideo, cfg.NumData = 24, 2
	cfg.Ladder = has.FineLadder()
	return cfg
}

// TestMetroCellAssemblyAllocs pins cellsim.New on one metro cell, its
// private OneAPI server included: the cell's fixed cost, which the
// multi-cell pin below sees sixteen times over in the ledger's
// metro_shared workload. The bound, metroAssemblyAllocs, is the figure
// measured in the build that runs it (allocbounds_*_test.go), so one
// object more per cell fails it with or without -race.
func TestMetroCellAssemblyAllocs(t *testing.T) {
	cfg := metroCell(1, 20*time.Second)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("cellsim.New on a metro cell: %.0f allocations", allocs)
	if allocs > metroAssemblyAllocs {
		t.Errorf("cellsim.New on a metro cell makes %.0f allocations, want <= %d", allocs, metroAssemblyAllocs)
	}
}

// TestMultiCellAllocsPerCell pins the heap objects of a whole multi-cell
// run: four metro-shaped cells through RunMultiConfig on one shared
// server, assembly included — the path the ledger's metro_shared
// figure measures. The bound, multiCellAllocsPerCell, sits half an
// object above the figure measured in the build that runs it
// (allocbounds_*_test.go), so one object more per cell fails it, and
// one more per session (26 per cell) or per BAI (20) by far.
func TestMultiCellAllocsPerCell(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const cells, bound = 4, multiCellAllocsPerCell
	cfgs := make([]Config, cells)
	for c := range cfgs {
		cfgs[c] = metroCell(uint64(1+c), 20*time.Second)
	}
	best := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ { // best of three, against the runtime's own strays
		server := oneapi.NewServer(core.DefaultConfig(), nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunMultiConfig(context.Background(), MultiConfig{Workers: 1}, server, cfgs...); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	perCell := float64(best) / cells
	t.Logf("%d cells through RunMultiConfig: %d allocations, %.1f per cell", cells, best, perCell)
	if perCell > bound {
		t.Errorf("a metro-shaped multi-cell run allocates %.1f times per cell, want <= %v", perCell, bound)
	}
}

// TestRunStartAllocsIndependentOfSessions pins what a declared session
// costs the start of a run: nothing of its own. Arrivals and departures
// are ScheduleHandlerArg events on two handlers that are views of the
// Sim, so queueing them for 200 sessions allocates two 256-event slabs
// and two heap arrays, the first sized for a slab's worth of events and
// then one regrowth (4 in all) — not a closure per event on top (384
// more).
func TestRunStartAllocsIndependentOfSessions(t *testing.T) {
	s, err := New(churnConfig(1, 200, 400*time.Second, 12))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.scheduleStarts()
	runtime.ReadMemStats(&after)
	if n := s.env.events.Len(); n < 300 {
		t.Fatalf("%d events queued for 200 sessions, want an arrival each and a departure for most", n)
	}
	allocs := after.Mallocs - before.Mallocs
	t.Logf("scheduling a 200-session churn run's arrivals and departures: %d allocations", allocs)
	if allocs > 8 {
		t.Errorf("queueing 200 sessions' arrivals and departures made %d allocations, want <= 8: nothing per session", allocs)
	}
}

// mpdContent is an MPD's observable content, deep-copied.
type mpdContent struct {
	reps     []has.Representation
	streamed has.Ladder // the ladder players stream by, shared by all of them
	segDur   time.Duration
	segments int
	jitter   float64
}

func contentOf(s *Sim) mpdContent {
	return mpdContent{
		reps:     append([]has.Representation(nil), s.mpd.Representations...),
		streamed: s.videoSlab[0].Player.State().Ladder.Clone(),
		segDur:   s.mpd.SegmentDuration,
		segments: s.mpd.TotalSegments,
		jitter:   s.mpd.SizeJitter,
	}
}

// TestSharedMPDIsNeverWritten: every player of a cell streams one MPD
// and one ladder. Several cells run at once (the race detector watches
// `make check`), each through a whole churn run with every adapter,
// driver and control-plane consumer in the loop; afterwards each cell's
// MPD must be exactly what New built, and MPD().Ladder() must still
// hand out private copies.
func TestSharedMPDIsNeverWritten(t *testing.T) {
	const cells = 4
	server := oneapi.NewServer(core.DefaultConfig(), nil)
	sims := make([]*Sim, cells)
	before := make([]mpdContent, cells)
	for c := range sims {
		cfg := churnConfig(uint64(10+c), 40, 60*time.Second, 8)
		// One conventional player beside the FLARE sessions, there
		// from the start to the end.
		cfg.NumVideo = 0
		cfg.VideoGroups = []FlowGroup{{Scheme: SchemeFLARE, Count: 40}, {Scheme: SchemeFESTIVE, Count: 1}}
		cfg.VideoArrivals = append(cfg.VideoArrivals, 0)
		cfg.VideoDepartures = append(cfg.VideoDepartures, 0)
		cfg.VBRJitter = 0.2
		s, err := NewInCell(cfg, server, c)
		if err != nil {
			t.Fatal(err)
		}
		sims[c], before[c] = s, contentOf(s)

		shared := s.videoSlab[0].Player.State().Ladder
		for i := range s.videoSlab {
			p := &s.videoSlab[i].Player
			if p.MPD() != s.mpd {
				t.Fatalf("cell %d player %d has a private MPD", c, i)
			}
			if l := p.State().Ladder; &l[0] != &shared[0] {
				t.Fatalf("cell %d player %d has a private ladder", c, i)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, cells)
	for c, s := range sims {
		c, s := c, s
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[c] = s.Run()
		}()
	}
	wg.Wait()

	for c, s := range sims {
		if errs[c] != nil {
			t.Fatalf("cell %d: %v", c, errs[c])
		}
		if after := contentOf(s); !reflect.DeepEqual(after, before[c]) {
			t.Errorf("cell %d: the shared MPD changed during the run:\nbefore %+v\nafter  %+v", c, before[c], after)
		}
		// Consumers of MPD().Ladder() own what they get.
		mine := s.videoSlab[0].Player.MPD().Ladder()
		mine[0] = -1
		if again := s.videoSlab[0].Player.MPD().Ladder(); again[0] == -1 {
			t.Errorf("cell %d: MPD().Ladder() returned shared storage", c)
		}
		if streamed := s.videoSlab[0].Player.State().Ladder; streamed[0] == -1 {
			t.Errorf("cell %d: MPD().Ladder() aliases the ladder players stream by", c)
		}
	}
}
