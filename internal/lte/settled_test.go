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

// numSettled counts the cell's settled bearers.
func (e *ENodeB) numSettled() (n int) {
	for _, b := range e.bearers {
		if b.settled {
			n++
		}
	}
	return n
}

// settledPair is a production cell and its reference twin.
type settledPair struct {
	t    *testing.T
	prod *ENodeB
	ref  *refCell
	// Counters proving the sequence exercised what it is meant to.
	settles, readmits, skippedTicks int
}

func newSettledPair(t *testing.T, bearers int) *settledPair {
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
	if live, settled, stirred := len(p.prod.live), p.prod.numSettled(), len(p.prod.stirred); live+settled+stirred != len(p.prod.bearers) {
		p.t.Fatalf("%s tti %d: %d live + %d settled + %d stirred != %d bearers", when, tti, live, settled, stirred, len(p.prod.bearers))
	}
	listed := make(map[*Bearer]bool, len(p.prod.bearers))
	for i, b := range p.prod.live {
		if b.settled {
			p.t.Fatalf("%s tti %d: live bearer %d is also marked settled", when, tti, b.ID)
		}
		if i > 0 && p.prod.live[i-1].idx >= b.idx {
			p.t.Fatalf("%s tti %d: live set out of bearer order at %d", when, tti, i)
		}
		listed[b] = true
	}
	for _, b := range p.prod.stirred {
		if b.settled || listed[b] {
			p.t.Fatalf("%s tti %d: stirred bearer %d is also settled, live, or listed twice", when, tti, b.ID)
		}
		listed[b] = true
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
	for _, b := range p.prod.bearers {
		if b.settled {
			undisturbed = append(undisturbed, quiet{b, b.avgTput})
			b.avgTput = sentinel
		}
	}
	p.readmits += len(p.prod.stirred)
	before := len(undisturbed)
	p.prod.RunTTI(tti)
	p.ref.runTTI(tti)
	if d := p.prod.numSettled() - before; d > 0 {
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
	t.Run("sequential", func(t *testing.T) {
		for seed := uint64(1); seed <= 2; seed++ {
			runSettledSequence(t, seed)
		}
	})
}

// runSettledSequence drives one randomized sequence: bursts of traffic
// and rate changes (through the cell's setters and the bearer's own)
// separated by idle spans long enough for served bearers to
// decay all the way to their fixed point, some of them crossed by
// FastForwardIdle instead of TTI by TTI.
func runSettledSequence(t *testing.T, seed uint64) {
	const bearers = 12
	rng := sim.NewRNG(seed)
	p := newSettledPair(t, bearers)
	rates := []float64{0, 0, 3e5, 1e6, 2.5e6}
	tti := int64(0)

	// mutate applies one random operation: kinds 0 and 1 enqueue, 2 and
	// 3 go through the cell's setters, 4 and 5 through the bearer's. (The
	// reference's bearers belong to no cell and cannot settle, so a
	// setter is a plain write there.)
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
					b.SetGBR(rate)
				}
			})
		case 3:
			p.both(i, func(e *ENodeB, b *Bearer) {
				if e != nil {
					if err := e.SetMBR(b.ID, rate); err != nil {
						t.Fatal(err)
					}
				} else {
					b.SetMBR(rate)
				}
			})
		case 4:
			p.both(i, func(_ *ENodeB, b *Bearer) { b.SetGBR(rate) })
		case 5:
			p.both(i, func(_ *ENodeB, b *Bearer) { b.SetMBR(rate) })
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
	for _, b := range p.prod.bearers {
		if b.settled && b.everServed {
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
	if enb.numSettled() != 2 || !enb.Idle() {
		t.Fatalf("fresh idle bearers did not settle on their first TTI: %d settled", enb.numSettled())
	}
	bs[1].Enqueue(500)
	if enb.Idle() {
		t.Fatal("Idle() missed bytes enqueued on a settled bearer")
	}
	if len(enb.live) != 1 || enb.live[0] != bs[1] {
		t.Fatalf("enqueued bearer was not re-admitted: live = %v", enb.live)
	}
}

// TestReadmissionEdgeCases walks the corners of the stir/readmit
// protocol one at a time, comparing with the tick-every-TTI reference
// after every pass.
func TestReadmissionEdgeCases(t *testing.T) {
	t.Run("sequential", runReadmissionEdgeCases)
}

func runReadmissionEdgeCases(t *testing.T) {
	const bearers = 6
	p := newSettledPair(t, bearers)
	tti := int64(0)
	step := func() { p.step(tti); tti++ }
	wantSettled := func(when string, want int) {
		t.Helper()
		if got := p.prod.numSettled(); got != want {
			t.Fatalf("%s: %d bearers settled, want %d", when, got, want)
		}
	}
	wantStirred := func(when string, want int) {
		t.Helper()
		if got := len(p.prod.stirred); got != want {
			t.Fatalf("%s: %d bearers waiting for readmit, want %d", when, got, want)
		}
	}

	// Bearer 0 carries traffic at a GBR and an MBR, then decays all the
	// way to its fixed point across one long jump; the rest never carry
	// anything and settle on their first TTI.
	p.both(0, func(_ *ENodeB, b *Bearer) { b.SetGBR(3e5); b.SetMBR(2.5e6); b.Enqueue(30_000) })
	for !p.idle(tti - 1) {
		step()
	}
	p.prod.FastForwardIdle(tti-1, tti+90_000)
	p.ref.skipIdle(tti-1, tti+90_000)
	tti += 90_000
	p.check("after the settling jump", tti)
	wantSettled("after the settling jump", bearers)
	if !p.prod.bearers[0].everServed {
		t.Fatal("bearer 0 was never served")
	}

	// A rate set to a new value and back between two passes: stirred
	// once, ticked once at the rate it settled at, settled again.
	p.both(0, func(_ *ENodeB, b *Bearer) { b.SetGBR(1e6); b.SetGBR(3e5) })
	wantStirred("after SetGBR there and back", 1)
	step()
	wantSettled("after SetGBR there and back", bearers)

	// A rate that really changed keeps the bearer live until the credits
	// reach their new clamp.
	p.both(0, func(e *ENodeB, b *Bearer) {
		if e != nil {
			if err := e.SetGBR(b.ID, 1e6); err != nil {
				t.Fatal(err)
			}
		} else {
			b.SetGBR(1e6)
		}
	})
	step()
	wantSettled("one TTI after a GBR change", bearers-1)
	for i := 0; i < 1_500; i++ {
		step()
	}
	wantSettled("after the credits saturated at the new GBR", bearers)

	// Enqueue of nothing stirs nothing.
	p.both(1, func(_ *ENodeB, b *Bearer) {
		if b.Enqueue(0) != 0 || b.Enqueue(-5) != 0 {
			t.Fatal("Enqueue accepted a non-positive count")
		}
	})
	wantStirred("after Enqueue(0)", 0)
	step()

	// Stirred three times before one readmit: listed once, one place in live.
	p.both(2, func(_ *ENodeB, b *Bearer) { b.SetMBR(1e6); b.Enqueue(4_000); b.SetGBR(3e5) })
	wantStirred("after three stirs of one bearer", 1)
	// Bytes beyond QueueLimit: part of the first burst is refused, all of
	// the second.
	p.both(3, func(_ *ENodeB, b *Bearer) {
		if got := b.Enqueue(100_000); got != b.QueueLimit {
			t.Fatalf("Enqueue past the limit accepted %d of %d", got, b.QueueLimit)
		}
		if got := b.Enqueue(10); got != 0 {
			t.Fatalf("Enqueue on a full queue accepted %d", got)
		}
	})
	wantStirred("after stirring two bearers", 2)
	if p.idle(tti - 1) {
		t.Fatal("cell idle with bytes queued on stirred bearers")
	}
	wantStirred("after Idle", 0)
	for !p.idle(tti - 1) {
		step()
	}

	// The span boundary: bytes that arrive on the wake TTI, after the jump
	// and before RunTTI — on a bearer the jump's replay left live, and on
	// one that has been settled all along.
	to := tti + 700
	p.prod.FastForwardIdle(tti-1, to)
	p.ref.skipIdle(tti-1, to)
	p.check("after FastForwardIdle", to)
	p.both(3, func(_ *ENodeB, b *Bearer) { b.Enqueue(9_000) })
	p.both(4, func(_ *ENodeB, b *Bearer) { b.Enqueue(9_000) })
	tti = to
	step()
	// A jump over no TTI at all does not readmit; the stir has to survive
	// it and be seen by the pass after.
	p.both(5, func(_ *ENodeB, b *Bearer) { b.SetMBR(3e5) })
	p.prod.FastForwardIdle(tti-1, tti)
	p.ref.skipIdle(tti-1, tti)
	wantStirred("after an empty jump", 1)
	step()
	wantStirred("after the pass behind the empty jump", 0)
	for !p.idle(tti - 1) {
		step()
	}

	// Stirs arriving in descending bearer order, around bearers that are
	// already live: the list keeps arrival order, live must not. Settle
	// everything, wake 1 and 4 with traffic, then stir 5, 3 and 0 with a
	// rate change each.
	p.prod.FastForwardIdle(tti-1, tti+90_000)
	p.ref.skipIdle(tti-1, tti+90_000)
	tti += 90_000
	wantSettled("after the second settling jump", bearers)
	p.both(1, func(_ *ENodeB, b *Bearer) { b.Enqueue(9_000) })
	p.both(4, func(_ *ENodeB, b *Bearer) { b.Enqueue(9_000) })
	step()
	for _, i := range []int{5, 3, 0} {
		p.both(i, func(_ *ENodeB, b *Bearer) { b.SetGBR(2.5e6) })
	}
	wantStirred("after three stirs in descending order", 3)
	for i, want := range []int{5, 3, 0} {
		if got := p.prod.stirred[i].ID; got != want {
			t.Fatalf("stirred[%d] is bearer %d, want %d (arrival order)", i, got, want)
		}
	}
	p.idle(tti - 1)
	wantStirred("after Idle", 0)
	for i, want := range []int{0, 1, 3, 4, 5} {
		if len(p.prod.live) != 5 || p.prod.live[i].ID != want {
			t.Fatalf("live after descending stirs = %v, want bearers 0 1 3 4 5, each once", liveIDs(p.prod))
		}
	}
	step()
	for !p.idle(tti - 1) {
		step()
	}
	if p.settles == 0 || p.readmits == 0 || p.skippedTicks == 0 {
		t.Fatalf("sequence did not exercise the settled set: %d settles, %d re-admissions, %d skipped ticks",
			p.settles, p.readmits, p.skippedTicks)
	}
}

func liveIDs(e *ENodeB) []int {
	ids := make([]int, len(e.live))
	for i, b := range e.live {
		ids[i] = b.ID
	}
	return ids
}

// TestReadmitWorstCaseAllocs: every bearer of a 380-bearer cell stirred
// in one TTI fills the stirred list to its worst-case length, bearers;
// the list was sized for that when the cell was built, so the stirs and
// the pass that re-admits them allocate nothing.
func TestReadmitWorstCaseAllocs(t *testing.T) {
	const bearers = 380
	enb := NewENodeB(NewUniformStaticChannel(bearers, 12), TwoPhaseGBRScheduler{})
	for i := 0; i < bearers; i++ {
		if _, err := enb.AddBearer(&Bearer{ID: i, UE: i, Class: ClassVideo}); err != nil {
			t.Fatal(err)
		}
	}
	tti := int64(0)
	enb.RunTTI(tti)
	if got := enb.numSettled(); got != bearers {
		t.Fatalf("%d of %d fresh bearers settled on the first TTI", got, bearers)
	}
	room, longest := cap(enb.stirred), 0
	allocs := testing.AllocsPerRun(100, func() {
		// Same rate: stirred, ticked once, proven settled again.
		for i := bearers - 1; i >= 0; i-- {
			enb.bearers[i].SetGBR(0)
		}
		longest = max(longest, len(enb.stirred))
		tti++
		enb.RunTTI(tti)
	})
	if allocs != 0 {
		t.Errorf("stirring and re-admitting %d bearers: %v allocs per TTI, want 0", bearers, allocs)
	}
	if longest != bearers || cap(enb.stirred) != room {
		t.Errorf("stirred list reached %d of %d bearers, capacity %d -> %d", longest, bearers, room, cap(enb.stirred))
	}
	if got := enb.numSettled(); got != bearers || len(enb.stirred) != 0 {
		t.Errorf("after the last pass: %d settled, %d still listed", got, len(enb.stirred))
	}
}
