package transport

import (
	"testing"

	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/sim"
)

// testEnv is a minimal cell loop: one eNodeB, a clock, and an event
// queue, stepped TTI by TTI.
type testEnv struct {
	clock  sim.Clock
	events sim.EventQueue
	enb    *lte.ENodeB
	flows  []*Flow
}

func newTestEnv(t *testing.T, iTbs, numUEs int) *testEnv {
	t.Helper()
	return &testEnv{
		enb: lte.NewENodeB(lte.NewUniformStaticChannel(numUEs, iTbs), lte.PFScheduler{}),
	}
}

func (e *testEnv) NowTTI() int64 { return e.clock.TTI() }

func (e *testEnv) Schedule(delay int64, fn func()) {
	e.events.Schedule(e.at(delay), fn)
}

func (e *testEnv) ScheduleArg(delay int64, fn func(int64), arg int64) {
	e.events.ScheduleArg(e.at(delay), fn, arg)
}

func (e *testEnv) ScheduleHandler(delay int64, h sim.Handler) {
	e.events.ScheduleHandler(e.at(delay), h)
}

func (e *testEnv) ScheduleHandlerArg(delay int64, h sim.Handler, arg int64) {
	e.events.ScheduleHandlerArg(e.at(delay), h, arg)
}

func (e *testEnv) at(delay int64) int64 { return e.clock.TTI() + max(delay, 1) }

func (e *testEnv) addFlow(t *testing.T, ue int, class lte.BearerClass, cfg Config) *Flow {
	t.Helper()
	b := &lte.Bearer{ID: len(e.flows), UE: ue, Class: class}
	if _, err := e.enb.AddBearer(b); err != nil {
		t.Fatal(err)
	}
	f, err := NewFlow(e, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.flows = append(e.flows, f)
	return f
}

// run advances the sim by n TTIs.
func (e *testEnv) run(n int64) {
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

// funcOnly hides testEnv's handler calls: a ClosureEnv and no Env.
type funcOnly struct{ e *testEnv }

func (f funcOnly) NowTTI() int64                   { return f.e.NowTTI() }
func (f funcOnly) Schedule(delay int64, fn func()) { f.e.Schedule(delay, fn) }
func (f funcOnly) ScheduleArg(delay int64, fn func(int64), arg int64) {
	f.e.ScheduleArg(delay, fn, arg)
}

// TestClosureEnvMatchesEnv: a flow NewFlow builds on a ClosureEnv that
// is no Env gets its ACK and loss timers as closures, and behaves
// exactly as one on an Env.
func TestClosureEnvMatchesEnv(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueLimit = 20_000 // overflows: loss timers fire too
	run := func(closures bool) *Flow {
		env := newTestEnv(t, 10, 1)
		b := &lte.Bearer{ID: 0, UE: 0, Class: lte.ClassData}
		if _, err := env.enb.AddBearer(b); err != nil {
			t.Fatal(err)
		}
		var on ClosureEnv = env
		if closures {
			on = funcOnly{env}
		}
		f, err := NewFlow(on, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		env.flows = append(env.flows, f)
		f.SetGreedy(true)
		env.run(5000)
		return f
	}
	want, got := run(false), run(true)
	if want.LossEvents() == 0 {
		t.Fatal("no loss events: the loss timer is not exercised")
	}
	if got.DeliveredTotal() != want.DeliveredTotal() || got.LossEvents() != want.LossEvents() ||
		got.Cwnd() != want.Cwnd() || got.InFlight() != want.InFlight() {
		t.Errorf("ClosureEnv: delivered %d, %d losses, cwnd %v, in flight %d; Env: %d, %d, %v, %d",
			got.DeliveredTotal(), got.LossEvents(), got.Cwnd(), got.InFlight(),
			want.DeliveredTotal(), want.LossEvents(), want.Cwnd(), want.InFlight())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{RTTTTIs: 1, MSS: 1460, InitialWindow: 10, QueueLimit: 1000},
		{RTTTTIs: 40, MSS: 0, InitialWindow: 10, QueueLimit: 1000},
		{RTTTTIs: 40, MSS: 1460, InitialWindow: 0, QueueLimit: 1000},
		{RTTTTIs: 40, MSS: 1460, InitialWindow: 10, QueueLimit: 0},
	}
	env := newTestEnv(t, 10, 1)
	b := &lte.Bearer{ID: 0, UE: 0}
	for i, cfg := range bad {
		if _, err := NewFlow(env, b, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewFlow(env, b, DefaultConfig()); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestGreedyFlowSaturatesLink(t *testing.T) {
	const iTbs = 10
	env := newTestEnv(t, iTbs, 1)
	f := env.addFlow(t, 0, lte.ClassData, DefaultConfig())
	f.SetGreedy(true)
	env.run(10000) // 10 s
	gotBps := float64(f.DeliveredTotal()) * 8 / 10
	cell := lte.CellRateBps(iTbs)
	if gotBps < 0.85*cell {
		t.Fatalf("greedy flow got %.0f of %.0f bits/s", gotBps, cell)
	}
	if gotBps > 1.01*cell {
		t.Fatalf("flow exceeded link capacity: %.0f > %.0f", gotBps, cell)
	}
}

func TestSendDeliversExactly(t *testing.T) {
	env := newTestEnv(t, 10, 1)
	f := env.addFlow(t, 0, lte.ClassVideo, DefaultConfig())
	var delivered int64
	f.OnDelivered = sim.HandlerFunc(func(n int64) { delivered += n })
	const size = 500_000
	f.Send(size)
	env.run(20000)
	if delivered != size {
		t.Fatalf("delivered %d, want %d", delivered, size)
	}
	if f.DeliveredTotal() != size {
		t.Fatalf("DeliveredTotal = %d", f.DeliveredTotal())
	}
	if f.Pending() != 0 || f.InFlight() != 0 {
		t.Fatalf("flow not drained: pending=%d inflight=%d", f.Pending(), f.InFlight())
	}
}

func TestSendIgnoresNonPositive(t *testing.T) {
	env := newTestEnv(t, 10, 1)
	f := env.addFlow(t, 0, lte.ClassVideo, DefaultConfig())
	f.Send(0)
	f.Send(-100)
	if f.Pending() != 0 {
		t.Fatalf("pending = %d after no-op sends", f.Pending())
	}
}

func TestSlowStartRampsWindow(t *testing.T) {
	env := newTestEnv(t, 20, 1)
	f := env.addFlow(t, 0, lte.ClassVideo, DefaultConfig())
	initial := f.Cwnd()
	f.Send(2_000_000)
	env.run(2000)
	if f.Cwnd() <= initial {
		t.Fatalf("cwnd did not grow: %v <= %v", f.Cwnd(), initial)
	}
}

func TestLossEventsCutWindow(t *testing.T) {
	// Two greedy flows on a slow link must overflow the queue and back
	// off; Westwood keeps the window near the BDP, not at the cap.
	env := newTestEnv(t, 2, 2)
	cfg := DefaultConfig()
	cfg.QueueLimit = 64 << 10
	f1 := env.addFlow(t, 0, lte.ClassData, cfg)
	f2 := env.addFlow(t, 1, lte.ClassData, cfg)
	f1.SetGreedy(true)
	f2.SetGreedy(true)
	env.run(30000)
	if f1.LossEvents() == 0 && f2.LossEvents() == 0 {
		t.Fatal("no loss events despite tiny queue and greedy senders")
	}
	// The two flows share the cell roughly fairly thanks to PF + TCP.
	r := float64(f1.DeliveredTotal()) / float64(f2.DeliveredTotal())
	if r < 0.7 || r > 1.4 {
		t.Fatalf("greedy flows unbalanced: %d vs %d", f1.DeliveredTotal(), f2.DeliveredTotal())
	}
}

func TestBandwidthEstimateTracksLinkRate(t *testing.T) {
	const iTbs = 8
	env := newTestEnv(t, iTbs, 1)
	f := env.addFlow(t, 0, lte.ClassData, DefaultConfig())
	f.SetGreedy(true)
	env.run(20000)
	bwe := f.BandwidthEstimateBps()
	cell := lte.CellRateBps(iTbs)
	if bwe < 0.5*cell || bwe > 1.5*cell {
		t.Fatalf("Westwood estimate %.0f far from link rate %.0f", bwe, cell)
	}
}

func TestIdleResetShrinksWindow(t *testing.T) {
	env := newTestEnv(t, 20, 1)
	cfg := DefaultConfig()
	f := env.addFlow(t, 0, lte.ClassVideo, cfg)
	f.Send(1_000_000)
	env.run(10000)
	grown := f.Cwnd()
	if grown <= float64(cfg.InitialWindow*cfg.MSS) {
		t.Fatalf("window did not grow before idle: %v", grown)
	}
	// Idle beyond IdleResetTTIs, then send again.
	env.run(cfg.IdleResetTTIs + 100)
	f.Send(100_000)
	if f.Cwnd() >= grown {
		t.Fatalf("idle reset did not shrink window: %v >= %v", f.Cwnd(), grown)
	}
	env.run(5000)
	if f.Pending() != 0 {
		t.Fatal("post-idle send did not complete")
	}
}

func TestTwoSegmentsSequential(t *testing.T) {
	// HAS-style: request, wait for completion, request again.
	env := newTestEnv(t, 10, 1)
	f := env.addFlow(t, 0, lte.ClassVideo, DefaultConfig())
	var delivered int64
	f.OnDelivered = sim.HandlerFunc(func(n int64) { delivered += n })
	f.Send(300_000)
	env.run(8000)
	first := delivered
	if first != 300_000 {
		t.Fatalf("first segment incomplete: %d", first)
	}
	f.Send(400_000)
	env.run(8000)
	if delivered != 700_000 {
		t.Fatalf("second segment incomplete: %d", delivered)
	}
}

func TestConservationNoLoss(t *testing.T) {
	// With a huge queue there are no drops, so delivered equals sent.
	env := newTestEnv(t, 15, 1)
	cfg := DefaultConfig()
	cfg.QueueLimit = 1 << 30
	cfg.OverheadFactor = 1 // exact byte conservation
	f := env.addFlow(t, 0, lte.ClassVideo, cfg)
	total := int64(0)
	for i := 0; i < 10; i++ {
		f.Send(123_456)
		total += 123_456
		env.run(1500)
	}
	env.run(10000)
	if f.DeliveredTotal() != total {
		t.Fatalf("delivered %d != sent %d (lost %d)", f.DeliveredTotal(), total, f.lostTotal)
	}
	if f.LossEvents() != 0 {
		t.Fatalf("unexpected loss events: %d", f.LossEvents())
	}
}

func TestVideoAndDataCoexistence(t *testing.T) {
	// A segment-paced video flow should make progress against a greedy
	// data flow on the same cell.
	env := newTestEnv(t, 12, 2)
	video := env.addFlow(t, 0, lte.ClassVideo, DefaultConfig())
	data := env.addFlow(t, 1, lte.ClassData, DefaultConfig())
	data.SetGreedy(true)
	var got int64
	video.OnDelivered = sim.HandlerFunc(func(n int64) { got += n })
	video.Send(1_000_000)
	env.run(20000)
	if got != 1_000_000 {
		t.Fatalf("video segment starved by data flow: %d of 1e6 bytes", got)
	}
	if data.DeliveredTotal() == 0 {
		t.Fatal("data flow got nothing")
	}
}
