package lte

import (
	"math"
	"testing"

	"github.com/flare-sim/flare/internal/sim"
)

// The settled set's contract is that the ticks it skips are exactly the
// ticks that were no-ops. The oracle here is a reference cell that knows
// nothing about live or settled: every TTI it scans every bearer for
// backlog and ticks every bearer, and over an idle span it ticks every
// bearer once per skipped TTI — the engine's semantics before the
// settled set existed. Production and reference are driven through the
// same randomized operation sequence and compared bit for bit after
// every TTI.

// refCell is the tick-everything reference eNodeB.
type refCell struct {
	ch      Channel
	sched   Scheduler
	bearers []*Bearer
	states  []FlowState
	active  []*FlowState
}

func (r *refCell) runTTI(tti int64) {
	r.ch.Update(tti)
	r.active = r.active[:0]
	for i, b := range r.bearers {
		if b.queue <= 0 {
			continue
		}
		f := &r.states[i]
		f.ITbs = r.ch.ITbs(b.UE)
		f.BitsPerRB = BitsPerRB(f.ITbs)
		f.remaining = b.queue
		f.granted = 0
		r.active = append(r.active, f)
	}
	served := make([]float64, len(r.bearers))
	if len(r.active) > 0 {
		r.sched.Allocate(tti, r.active, RBGSizes())
		for _, f := range r.active {
			if f.granted == 0 {
				continue
			}
			n := f.Bearer.serve(int64(TBSBytes(f.ITbs, f.granted)), f.granted)
			served[f.Bearer.ID] = float64(n * 8)
		}
	}
	for i, b := range r.bearers {
		b.tick(served[i])
	}
}

// skipIdle is the literal meaning of FastForwardIdle(from, to).
func (r *refCell) skipIdle(from, to int64) {
	for tti := from + 1; tti < to; tti++ {
		r.ch.Update(tti)
		for _, b := range r.bearers {
			b.tick(0)
		}
	}
}

// bearerBits is everything a bearer's future behaviour depends on, with
// the floats as bit patterns so that -0 and +0, or two NaNs, cannot
// pass for equal.
type bearerBits struct {
	avg, fast, gbrCredit, mbrCredit uint64
	mbrPrimed                       bool
	queue                           int64
	win, total                      WindowStats
}

func bitsOf(b *Bearer) bearerBits {
	return bearerBits{
		avg:       math.Float64bits(b.avgTput),
		fast:      math.Float64bits(b.fastTput),
		gbrCredit: math.Float64bits(b.gbrCredit),
		mbrCredit: math.Float64bits(b.mbrCredit),
		mbrPrimed: b.mbrPrimed,
		queue:     b.queue,
		win:       b.win,
		total:     b.total,
	}
}

// settledPair is a production cell and its reference twin.
type settledPair struct {
	t    *testing.T
	prod *ENodeB
	ref  *refCell
	// Counters proving the sequence exercised what it is meant to.
	settles, readmits, skippedTicks int
}

func newSettledPair(t *testing.T, bearers int, pool *sim.WorkerPool) *settledPair {
	t.Helper()
	mkChannel := func() Channel {
		offsets := make([]int64, bearers)
		for i := range offsets {
			offsets[i] = int64(i) * 37
		}
		ch, err := NewCyclicChannel(4, 14, 900, offsets)
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	p := &settledPair{
		t:    t,
		prod: NewENodeB(mkChannel(), TwoPhaseGBRScheduler{}),
		ref:  &refCell{ch: mkChannel(), sched: TwoPhaseGBRScheduler{}},
	}
	p.prod.SetWorkerPool(pool)
	for i := 0; i < bearers; i++ {
		class := ClassVideo
		if i%4 == 3 {
			class = ClassData
		}
		if _, err := p.prod.AddBearer(&Bearer{ID: i, UE: i, Class: class, QueueLimit: 64 << 10}); err != nil {
			t.Fatal(err)
		}
		p.ref.bearers = append(p.ref.bearers, &Bearer{ID: i, UE: i, Class: class, QueueLimit: 64 << 10})
	}
	p.ref.states = make([]FlowState, bearers)
	for i, b := range p.ref.bearers {
		p.ref.states[i].Bearer = b
	}
	return p
}

// both applies one operation to bearer i of either cell.
func (p *settledPair) both(i int, op func(e *ENodeB, b *Bearer)) {
	op(p.prod, p.prod.bearers[i])
	op(nil, p.ref.bearers[i])
}

// check compares every bearer of the two cells and the production
// cell's own invariants.
func (p *settledPair) check(when string, tti int64) {
	p.t.Helper()
	for i, b := range p.prod.bearers {
		if got, want := bitsOf(b), bitsOf(p.ref.bearers[i]); got != want {
			p.t.Fatalf("%s tti %d: bearer %d diverged from the tick-everything reference:\n got %+v\nwant %+v", when, tti, i, got, want)
		}
	}
	if len(p.prod.live)+len(p.prod.settled) != len(p.prod.bearers) {
		p.t.Fatalf("%s tti %d: %d live + %d settled != %d bearers", when, tti, len(p.prod.live), len(p.prod.settled), len(p.prod.bearers))
	}
	for i := 1; i < len(p.prod.live); i++ {
		if p.prod.live[i-1].idx >= p.prod.live[i].idx {
			p.t.Fatalf("%s tti %d: live set out of bearer order at %d", when, tti, i)
		}
	}
}

// idle asks the production cell whether it is idle and checks the
// answer against the reference's backlog.
func (p *settledPair) idle(tti int64) bool {
	p.t.Helper()
	want := true
	for _, b := range p.ref.bearers {
		if b.queue > 0 {
			want = false
		}
	}
	got := p.prod.Idle()
	if got != want {
		p.t.Fatalf("tti %d: Idle() = %v with reference backlog saying %v", tti, got, want)
	}
	return got
}

// step runs one TTI on both cells. Bearers that sit settled and
// unstirred across it must not be ticked at all: each has its slow
// average swapped for a sentinel no tick would leave alone (any tick
// moves a normal value), checked and put back afterwards. Nothing reads
// a settled bearer's average — it is in no active set.
func (p *settledPair) step(tti int64) {
	p.t.Helper()
	const sentinel = 12345.0
	type quiet struct {
		b   *Bearer
		avg float64
	}
	var undisturbed []quiet
	for _, b := range p.prod.settled {
		if b.stirred() {
			p.readmits++
		} else {
			undisturbed = append(undisturbed, quiet{b, b.avgTput})
			b.avgTput = sentinel
		}
	}
	before := len(p.prod.settled)
	p.prod.RunTTI(tti)
	p.ref.runTTI(tti)
	if d := len(p.prod.settled) - before; d > 0 {
		p.settles += d
	}
	for _, q := range undisturbed {
		if q.b.avgTput != sentinel {
			p.t.Fatalf("tti %d: settled bearer %d was ticked", tti, q.b.ID)
		}
		q.b.avgTput = q.avg
		p.skippedTicks++
	}
	p.check("after RunTTI", tti)
}

func TestSettledSkipMatchesTickEveryTTI(t *testing.T) {
	pool := sim.NewWorkerPool(3)
	defer pool.Close()
	for _, tc := range []struct {
		name string
		pool *sim.WorkerPool
	}{
		{"sequential", nil},
		{"worker-pool", pool},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 2; seed++ {
				runSettledSequence(t, seed, tc.pool)
			}
		})
	}
}

// runSettledSequence drives one randomized sequence: bursts of traffic
// and rate changes (through the setters and by writing the exported
// fields) separated by idle spans long enough for served bearers to
// decay all the way to their fixed point, some of them crossed by
// FastForwardIdle instead of TTI by TTI.
func runSettledSequence(t *testing.T, seed uint64, pool *sim.WorkerPool) {
	const bearers = 12
	rng := sim.NewRNG(seed)
	p := newSettledPair(t, bearers, pool)
	rates := []float64{0, 0, 3e5, 1e6, 2.5e6}
	tti := int64(0)

	// mutate applies one random operation: kinds 0 and 1 enqueue, 2 and
	// 3 go through the setters, 4 and 5 write the exported fields.
	mutate := func(kind int) {
		i := rng.Intn(bearers)
		rate := rates[rng.Intn(len(rates))]
		switch kind {
		case 0, 1:
			n := int64(1 + rng.Intn(40_000))
			p.both(i, func(_ *ENodeB, b *Bearer) { b.Enqueue(n) })
		case 2:
			p.both(i, func(e *ENodeB, b *Bearer) {
				if e != nil {
					if err := e.SetGBR(b.ID, rate); err != nil {
						t.Fatal(err)
					}
				} else {
					b.GBRBits = rate
				}
			})
		case 3:
			p.both(i, func(e *ENodeB, b *Bearer) {
				if e != nil {
					if err := e.SetMBR(b.ID, rate); err != nil {
						t.Fatal(err)
					}
				} else {
					b.MBRBits = rate
				}
			})
		case 4:
			p.both(i, func(_ *ENodeB, b *Bearer) { b.GBRBits = rate })
		case 5:
			p.both(i, func(_ *ENodeB, b *Bearer) { b.MBRBits = rate })
		}
	}

	for round := 0; round < 6; round++ {
		// Busy phase: a few operations on most TTIs.
		for end := tti + 400; tti < end; tti++ {
			for k := rng.Intn(3); k > 0; k-- {
				mutate(rng.Intn(6))
			}
			p.step(tti)
		}
		// Drain, then sit idle. Rate changes keep landing on idle — often
		// already settled — bearers, before RunTTI and between RunTTI and
		// the idle check; fresh traffic is rare enough that most bearers
		// get the long spans' full decay.
		idle := int64(2_000 + rng.Intn(4_000))
		if round%2 == 1 {
			idle = 90_000 // past the ~75 s the EWMAs need to stall
		}
		quietMutate := func() {
			switch {
			case rng.Intn(300) == 0:
				mutate(2 + rng.Intn(4))
			case rng.Intn(20_000) == 0:
				mutate(0)
			}
		}
		for end := tti + idle; tti < end; tti++ {
			quietMutate()
			p.step(tti)
			quietMutate()
			if !p.idle(tti) || rng.Intn(50) != 0 {
				continue
			}
			// Cross the next stretch in one jump, sometimes with a rate
			// change made between the idle check and the jump.
			if rng.Intn(2) == 0 {
				mutate(2 + rng.Intn(4))
			}
			to := tti + 2 + int64(rng.Intn(3_000))
			p.prod.FastForwardIdle(tti, to)
			p.ref.skipIdle(tti, to)
			p.check("after FastForwardIdle", to)
			tti = to - 1
		}
	}
	if p.settles == 0 || p.readmits == 0 || p.skippedTicks == 0 {
		t.Fatalf("sequence did not exercise the settled set: %d settles, %d re-admissions, %d skipped ticks",
			p.settles, p.readmits, p.skippedTicks)
	}
	settledAfterService := 0
	for _, b := range p.prod.settled {
		if b.everServed {
			settledAfterService++
		}
	}
	if settledAfterService == 0 {
		t.Fatal("no bearer that carried traffic ever decayed to its fixed point; the long idle spans are too short")
	}
}

// TestEWMAStallsAtDenormal pins the fact the settled set exists for:
// the idle decay a -= a/N does not reach zero, it stalls at a non-zero
// denormal, where every further tick is a (slow) no-op.
func TestEWMAStallsAtDenormal(t *testing.T) {
	b := &Bearer{}
	b.tick(12_000)
	ticks := 0
	for !b.tickIdleOnce() {
		ticks++
		if ticks > 200_000 {
			t.Fatal("idle decay never reached a fixed point")
		}
	}
	if b.avgTput == 0 || b.fastTput == 0 {
		t.Fatalf("EWMAs decayed to zero (avg %g, fast %g); DESIGN says they stall above it", b.avgTput, b.fastTput)
	}
	if b.avgTput >= 0x1p-1022 || b.fastTput >= 0x1p-1022 {
		t.Fatalf("fixed point is not denormal: avg %g, fast %g", b.avgTput, b.fastTput)
	}
	if ticks < 60_000 || ticks > 90_000 {
		t.Fatalf("fixed point reached after %d idle TTIs, expected about 75 000", ticks)
	}
}

// TestIdleSeesEnqueueOnSettledBearer: bytes enqueued on a settled bearer
// after the TTI ran must make the cell non-idle at once — the kernel
// decides whether to fast-forward from Idle alone.
func TestIdleSeesEnqueueOnSettledBearer(t *testing.T) {
	enb := NewENodeB(NewUniformStaticChannel(2, 12), PFScheduler{})
	var bs [2]*Bearer
	for i := range bs {
		bs[i] = &Bearer{ID: i, UE: i, Class: ClassVideo}
		if _, err := enb.AddBearer(bs[i]); err != nil {
			t.Fatal(err)
		}
	}
	enb.RunTTI(0)
	if len(enb.settled) != 2 || !enb.Idle() {
		t.Fatalf("fresh idle bearers did not settle on their first TTI: %d settled", len(enb.settled))
	}
	bs[1].Enqueue(500)
	if enb.Idle() {
		t.Fatal("Idle() missed bytes enqueued on a settled bearer")
	}
	if len(enb.live) != 1 || enb.live[0] != bs[1] {
		t.Fatalf("enqueued bearer was not re-admitted: live = %v", enb.live)
	}
}
