package has

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/sim"
	"github.com/flare-sim/flare/internal/transport"
)

// playerEnv is a one-cell harness for player tests.
type playerEnv struct {
	clock   sim.Clock
	events  sim.EventQueue
	enb     *lte.ENodeB
	flows   []*transport.Flow
	players []*Player
}

func newPlayerEnv(t *testing.T, iTbs, numUEs int) *playerEnv {
	t.Helper()
	return &playerEnv{
		enb: lte.NewENodeB(lte.NewUniformStaticChannel(numUEs, iTbs), lte.PFScheduler{}),
	}
}

func (e *playerEnv) NowTTI() int64 { return e.clock.TTI() }

func (e *playerEnv) Schedule(delay int64, fn func()) {
	e.events.Schedule(e.at(delay), fn)
}

func (e *playerEnv) ScheduleArg(delay int64, fn func(int64), arg int64) {
	e.events.ScheduleArg(e.at(delay), fn, arg)
}

func (e *playerEnv) ScheduleHandler(delay int64, h sim.Handler) {
	e.events.ScheduleHandler(e.at(delay), h)
}

func (e *playerEnv) ScheduleHandlerArg(delay int64, h sim.Handler, arg int64) {
	e.events.ScheduleHandlerArg(e.at(delay), h, arg)
}

func (e *playerEnv) at(delay int64) int64 { return e.clock.TTI() + max(delay, 1) }

func (e *playerEnv) addPlayer(t *testing.T, ue int, mpd *MPD, a Adapter, cfg PlayerConfig) *Player {
	t.Helper()
	b := &lte.Bearer{ID: len(e.flows), UE: ue, Class: lte.ClassVideo}
	if _, err := e.enb.AddBearer(b); err != nil {
		t.Fatal(err)
	}
	f, err := transport.NewFlow(e, b, transport.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlayer(e, f, mpd, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.flows = append(e.flows, f)
	e.players = append(e.players, p)
	return p
}

func (e *playerEnv) run(n int64) {
	for i := int64(0); i < n; i++ {
		tti := e.clock.TTI()
		e.events.RunDue(tti)
		for _, f := range e.flows {
			f.Tick()
		}
		e.enb.RunTTI(tti)
		e.clock.Advance()
	}
}

// fixedAdapter always picks the same quality.
type fixedAdapter struct {
	quality int
	records []SegmentRecord
}

func (a *fixedAdapter) Name() string                      { return "fixed" }
func (a *fixedAdapter) NextQuality(State) int             { return a.quality }
func (a *fixedAdapter) OnSegmentComplete(r SegmentRecord) { a.records = append(a.records, r) }

// collectSegments hooks p.OnSegment — the one way to get a per-segment
// history out of a player — and returns the growing log.
func collectSegments(p *Player) *[]SegmentRecord {
	log := new([]SegmentRecord)
	p.OnSegment = func(r SegmentRecord) { *log = append(*log, r) }
	return log
}

func testMPD(t *testing.T, segs int) *MPD {
	t.Helper()
	m, err := NewMPD(SimLadder(), 2*time.Second, segs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewPlayerValidation(t *testing.T) {
	env := newPlayerEnv(t, 10, 1)
	mpd := testMPD(t, 10)
	b := &lte.Bearer{ID: 0, UE: 0}
	if _, err := env.enb.AddBearer(b); err != nil {
		t.Fatal(err)
	}
	f, err := transport.NewFlow(env, b, transport.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlayer(env, f, mpd, nil, DefaultPlayerConfig()); err == nil {
		t.Error("nil adapter accepted")
	}
	bad := DefaultPlayerConfig()
	bad.StartupSegments = 0
	if _, err := NewPlayer(env, f, mpd, &fixedAdapter{}, bad); err == nil {
		t.Error("zero startup segments accepted")
	}
	bad = DefaultPlayerConfig()
	bad.MaxBufferSeconds = 0
	if _, err := NewPlayer(env, f, mpd, &fixedAdapter{}, bad); err == nil {
		t.Error("zero max buffer accepted")
	}
	bad = DefaultPlayerConfig()
	bad.RequestLatencyTTIs = -1
	if _, err := NewPlayer(env, f, mpd, &fixedAdapter{}, bad); err == nil {
		t.Error("negative request latency accepted")
	}
	// NewMPD's ladder was checked when it was built; an MPD decoded
	// from JSON was not, and Init checks it.
	var decoded MPD
	doc := `{"segment_duration":2000000000,"representations":[{"id":"500k","bandwidth_bps":500000},{"id":"250k","bandwidth_bps":250000}]}`
	if err := json.Unmarshal([]byte(doc), &decoded); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlayer(env, f, &decoded, &fixedAdapter{}, DefaultPlayerConfig()); err == nil {
		t.Error("decoded MPD with a descending ladder accepted")
	}
}

func TestPlayerDownloadsAllSegments(t *testing.T) {
	env := newPlayerEnv(t, 12, 1) // plenty of capacity
	mpd := testMPD(t, 5)
	a := &fixedAdapter{quality: 1} // 250 kbps
	p := env.addPlayer(t, 0, mpd, a, DefaultPlayerConfig())
	log := collectSegments(p)
	p.Start()
	env.run(30_000) // 30 s for a 10 s presentation
	if !p.Done() {
		t.Fatal("player not done")
	}
	if got := len(*log); got != 5 {
		t.Fatalf("downloaded %d segments, want 5", got)
	}
	if got := p.Tally().Segments(); got != 5 {
		t.Fatalf("tally counts %d segments, want 5", got)
	}
	if got := len(a.records); got != 5 {
		t.Fatalf("adapter saw %d completions, want 5", got)
	}
	for i, rec := range *log {
		if rec.Index != i {
			t.Fatalf("record %d has index %d", i, rec.Index)
		}
		if rec.Quality != 1 || rec.RateBps != 250_000 {
			t.Fatalf("record %d wrong quality: %+v", i, rec)
		}
		if rec.Bytes != mpd.SegmentBytes(1) {
			t.Fatalf("record %d wrong size: %d", i, rec.Bytes)
		}
		if rec.ThroughputBps <= 0 {
			t.Fatalf("record %d non-positive throughput", i)
		}
		if rec.EndTTI <= rec.StartTTI {
			t.Fatalf("record %d zero download time", i)
		}
	}
}

func TestPlayerNoStallWithAmpleBandwidth(t *testing.T) {
	env := newPlayerEnv(t, 15, 1)
	mpd := testMPD(t, 20)
	p := env.addPlayer(t, 0, mpd, &fixedAdapter{quality: 0}, DefaultPlayerConfig())
	p.Start()
	env.run(60_000)
	if p.StallSeconds() != 0 {
		t.Fatalf("stalled %v s with ample bandwidth", p.StallSeconds())
	}
	if p.StallCount() != 0 {
		t.Fatalf("stall count %d", p.StallCount())
	}
}

func TestPlayerStallsWhenOvercommitted(t *testing.T) {
	// Highest quality (3 Mbps) on a ~1.2 Mbps link must rebuffer.
	env := newPlayerEnv(t, 0, 1)
	mpd := testMPD(t, 30)
	p := env.addPlayer(t, 0, mpd, &fixedAdapter{quality: 5}, DefaultPlayerConfig())
	p.Start()
	env.run(120_000)
	if p.StallSeconds() == 0 {
		t.Fatal("no stall despite 3 Mbps video on ~1.2 Mbps link")
	}
	if p.StallCount() == 0 {
		t.Fatal("stall seconds accrued but no stall events counted")
	}
}

func TestPlayerBufferCapRespected(t *testing.T) {
	env := newPlayerEnv(t, 15, 1)
	mpd := testMPD(t, 200)
	cfg := DefaultPlayerConfig()
	cfg.MaxBufferSeconds = 8
	p := env.addPlayer(t, 0, mpd, &fixedAdapter{quality: 0}, cfg)
	p.Start()
	maxSeen := 0.0
	for i := 0; i < 600; i++ {
		env.run(100)
		if b := p.BufferSeconds(); b > maxSeen {
			maxSeen = b
		}
	}
	// One segment of slack beyond the cap is permitted (the request
	// fires just below the cap and adds a whole segment).
	limit := cfg.MaxBufferSeconds + mpd.SegmentSeconds() + 0.1
	if maxSeen > limit {
		t.Fatalf("buffer reached %v s, cap %v + segment", maxSeen, cfg.MaxBufferSeconds)
	}
	if maxSeen < cfg.MaxBufferSeconds-2 {
		t.Fatalf("buffer never approached cap: max %v", maxSeen)
	}
}

func TestPlayerBufferDrainsInRealTime(t *testing.T) {
	env := newPlayerEnv(t, 15, 1)
	mpd := testMPD(t, 3)
	p := env.addPlayer(t, 0, mpd, &fixedAdapter{quality: 0}, DefaultPlayerConfig())
	p.Start()
	env.run(1_000) // all 3 tiny segments (6 s of video) download fast
	if !p.Done() {
		t.Fatal("short presentation should be done")
	}
	bufAfterDownload := p.BufferSeconds()
	if bufAfterDownload < 3 {
		t.Fatalf("buffer only %v s after full download", bufAfterDownload)
	}
	env.run(2_000) // play 2 s
	drained := bufAfterDownload - p.BufferSeconds()
	if drained < 1.9 || drained > 2.1 {
		t.Fatalf("buffer drained %v s over 2 s of playback", drained)
	}
}

func TestPlayerEndOfPresentationIsNotAStall(t *testing.T) {
	env := newPlayerEnv(t, 15, 1)
	mpd := testMPD(t, 3)
	p := env.addPlayer(t, 0, mpd, &fixedAdapter{quality: 0}, DefaultPlayerConfig())
	p.Start()
	env.run(60_000) // way past the end of playback
	if p.StallSeconds() != 0 {
		t.Fatalf("end of playback counted as stall: %v s", p.StallSeconds())
	}
}

func TestPlayerSelectedRatesAndQualities(t *testing.T) {
	env := newPlayerEnv(t, 12, 1)
	mpd := testMPD(t, 4)
	p := env.addPlayer(t, 0, mpd, &fixedAdapter{quality: 2}, DefaultPlayerConfig())
	log := collectSegments(p)
	p.Start()
	env.run(30_000)
	if len(*log) != 4 {
		t.Fatalf("%d segments, want 4", len(*log))
	}
	for i, rec := range *log {
		if rec.Quality != 2 || rec.RateBps != 500_000 {
			t.Fatalf("segment %d: quality %d rate %v", i, rec.Quality, rec.RateBps)
		}
	}
	if tally := p.Tally(); tally.Segments() != 4 || tally.AvgRateBps() != 500_000 || tally.Changes() != 0 {
		t.Fatalf("tally %+v, want 4 segments at 500 kbps, no changes", tally)
	}
}

// switchingAdapter alternates between two qualities.
type switchingAdapter struct{ n int }

func (a *switchingAdapter) Name() string { return "switching" }
func (a *switchingAdapter) NextQuality(State) int {
	a.n++
	return a.n % 2
}
func (a *switchingAdapter) OnSegmentComplete(SegmentRecord) {}

func TestPlayerTracksQualitySwitches(t *testing.T) {
	env := newPlayerEnv(t, 12, 1)
	mpd := testMPD(t, 6)
	p := env.addPlayer(t, 0, mpd, &switchingAdapter{}, DefaultPlayerConfig())
	log := collectSegments(p)
	p.Start()
	env.run(40_000)
	if len(*log) != 6 {
		t.Fatalf("got %d segments", len(*log))
	}
	for i := 1; i < len(*log); i++ {
		if (*log)[i].Quality == (*log)[i-1].Quality {
			t.Fatalf("switching adapter produced repeat at %d: %+v", i, *log)
		}
	}
	if got := p.Tally().Changes(); got != 5 {
		t.Fatalf("tally counts %d bitrate changes over 6 alternating segments, want 5", got)
	}
}

// pacingAdapter asks for a fixed delay before every request after the
// first, to exercise the RequestPacer extension.
type pacingAdapter struct {
	fixedAdapter
	delayed  int
	requests int
}

func (a *pacingAdapter) RequestDelay(State) int64 {
	a.requests++
	if a.requests > 1 && a.requests%2 == 0 {
		a.delayed++
		return 500
	}
	return 0
}

func TestPlayerHonorsRequestPacer(t *testing.T) {
	env := newPlayerEnv(t, 12, 1)
	mpd := testMPD(t, 5)
	a := &pacingAdapter{}
	p := env.addPlayer(t, 0, mpd, a, DefaultPlayerConfig())
	p.Start()
	env.run(40_000)
	if !p.Done() {
		t.Fatal("pacing should only delay, not block, downloads")
	}
	if a.delayed == 0 {
		t.Fatal("pacer was never consulted")
	}
}

func TestPlayerStateSnapshot(t *testing.T) {
	env := newPlayerEnv(t, 12, 1)
	mpd := testMPD(t, 10)
	p := env.addPlayer(t, 0, mpd, &fixedAdapter{quality: 1}, DefaultPlayerConfig())
	st := p.State()
	if st.LastQuality != -1 || st.SegmentsDownloaded != 0 || st.Playing {
		t.Fatalf("initial state wrong: %+v", st)
	}
	p.Start()
	env.run(20_000)
	st = p.State()
	if st.LastQuality != 1 || st.SegmentsDownloaded == 0 {
		t.Fatalf("running state wrong: %+v", st)
	}
	if st.Ladder.Len() != 6 {
		t.Fatalf("state ladder missing: %+v", st)
	}
}

func TestPlayerStallAndResumeCycle(t *testing.T) {
	// A trace channel that is generous, then dead, then generous forces
	// a stall and a resume; the counters must reflect exactly one
	// rebuffering episode.
	mpd := testMPD(t, 60)
	env := &playerEnv{}
	tr := make([]int, 60)
	for i := range tr {
		switch {
		case i < 10:
			tr[i] = 14 // rich start
		case i < 25:
			tr[i] = 0 // collapse
		default:
			tr[i] = 14
		}
	}
	ch, err := lte.NewTraceChannel([][]int{tr}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	env.enb = lte.NewENodeB(ch, lte.PFScheduler{})
	cfg := DefaultPlayerConfig()
	cfg.MaxBufferSeconds = 4                                      // tiny cushion so the collapse bites
	p := env.addPlayer(t, 0, mpd, &fixedAdapter{quality: 4}, cfg) // 2 Mbps fixed
	p.Start()
	env.run(60_000)
	if p.StallSeconds() <= 0 {
		t.Fatal("no stall during the 15 s dead zone")
	}
	if p.StallCount() < 1 {
		t.Fatal("stall seconds without stall events")
	}
	// It must have resumed and kept downloading after the dead zone.
	if n := p.Tally().Segments(); n < 20 {
		t.Fatalf("only %d segments; player never recovered", n)
	}
}

func TestPlayerThroughputSamplesReflectLink(t *testing.T) {
	env := newPlayerEnv(t, 10, 1) // ~9 Mbps cell
	mpd := testMPD(t, 8)
	p := env.addPlayer(t, 0, mpd, &fixedAdapter{quality: 3}, DefaultPlayerConfig())
	log := collectSegments(p)
	p.Start()
	env.run(30_000)
	if len(*log) == 0 {
		t.Fatal("no segment completed")
	}
	for _, rec := range *log {
		if rec.ThroughputBps > 1.2*lte.CellRateBps(10) {
			t.Fatalf("segment %d measured %v bps on a %v link",
				rec.Index, rec.ThroughputBps, lte.CellRateBps(10))
		}
	}
}

func TestPlayerStartupDelay(t *testing.T) {
	env := newPlayerEnv(t, 12, 1)
	mpd := testMPD(t, 10)
	p := env.addPlayer(t, 0, mpd, &fixedAdapter{quality: 1}, DefaultPlayerConfig())
	if p.StartupDelaySeconds() != -1 {
		t.Fatal("startup delay before Start should be -1")
	}
	env.run(500) // let time pass before the player starts
	p.Start()
	env.run(20_000)
	d := p.StartupDelaySeconds()
	// Two 250 kbps segments on a ~11 Mbps link: a fraction of a second,
	// but strictly positive and relative to Start, not to t=0.
	if d <= 0 || d > 5 {
		t.Fatalf("startup delay %v s", d)
	}
}
