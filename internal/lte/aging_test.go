package lte

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/flare-sim/flare/internal/sim"
)

// An idle bearer's accounting is aged when it is next read, in closed
// form (Bearer.ageIdle), instead of being stepped once per TTI. The
// oracle here keeps the per-TTI arithmetic the engine used to run for
// every bearer — refAcct.step, one TTI of every bearer, served or not —
// and holds the lazy accounting to it: the averages within a relative
// 1e-9 (or both below the normal range, where the iterated decay stalls
// at a denormal and the closed form reaches zero), the credits to
// within the same relative error and exactly once they have saturated.
// What proves the schedulers still decide as before is the twin below:
// on every scheduled TTI it runs the cell's scheduler a second time,
// over the same flows with the reference accounting in place of the
// lazy one, and records each TTI whose grants differ.

// refAcct is one bearer's accounting stepped every TTI.
type refAcct struct {
	avg, fast, gbr, mbr float64
	primed              bool
}

// step is one TTI at the given rates with servedBits delivered: the
// tick every bearer took every TTI before idle bearers aged on read.
func (r *refAcct) step(servedBits, gbrBits, mbrBits float64) {
	instant := servedBits * TTIsPerSecond
	r.avg += (instant - r.avg) / avgTputTTIs
	r.fast += (instant - r.fast) / fastTputTTIs
	if gbrBits > 0 {
		r.gbr += gbrBits / 8 / TTIsPerSecond
		r.gbr -= servedBits / 8
		if limit := gbrBits / 8; r.gbr > limit {
			r.gbr = limit
		} else if r.gbr < -limit {
			r.gbr = -limit
		}
	} else {
		r.gbr = 0
	}
	if mbrBits > 0 {
		burst := mbrBurstBytes(mbrBits)
		if !r.primed {
			r.primed = true
			r.mbr = burst
		}
		r.mbr += mbrBits / 8 / TTIsPerSecond
		r.mbr -= servedBits / 8
		if r.mbr > burst {
			r.mbr = burst
		}
	} else {
		r.primed = false
	}
}

// lazyAcct is b's accounting as the schedulers would read it now: a
// copy of the bearer, aged up to its cell's last TTI.
func lazyAcct(b *Bearer) refAcct {
	c := *b
	c.age()
	return refAcct{avg: c.avgTput, fast: c.fastTput, gbr: c.gbrCredit, mbr: c.mbrCredit, primed: c.mbrPrimed}
}

// closeAvg is the averages' tolerance.
func closeAvg(got, want float64) bool {
	if got < 0x1p-1022 && want < 0x1p-1022 {
		return true
	}
	return math.Abs(got-want) <= 1e-9*math.Abs(want)
}

// closeCredit is the credits' tolerance, relative to the credit's
// range: its clamp, or one TTI's largest delivery (9.4 kB), below zero,
// whichever is larger. exact asks for equality: where the reference
// sits on a clamp the lazy credit has certainly reached too, or where
// every sum is exact on both sides.
func closeCredit(got, want, limit float64, exact bool) bool {
	if exact {
		return got == want
	}
	return math.Abs(got-want) <= 1e-9*max(math.Abs(want), limit, 1e4)
}

// diffAcct describes how got strays from want beyond the tolerances, or
// returns "". gbrExact and mbrExact ask for the credits to be equal.
func diffAcct(got, want refAcct, gbrBits, mbrBits float64, gbrExact, mbrExact bool) string {
	switch {
	case !closeAvg(got.avg, want.avg):
		return fmt.Sprintf("slow average %g, reference %g", got.avg, want.avg)
	case !closeAvg(got.fast, want.fast):
		return fmt.Sprintf("fast average %g, reference %g", got.fast, want.fast)
	case !closeCredit(got.gbr, want.gbr, gbrBits/8, gbrExact):
		return fmt.Sprintf("GBR credit %v, reference %v (exact %v)", got.gbr, want.gbr, gbrExact)
	case got.primed != want.primed:
		return fmt.Sprintf("MBR primed %v, reference %v", got.primed, want.primed)
	case !closeCredit(got.mbr, want.mbr, mbrBurstBytes(mbrBits), mbrExact):
		return fmt.Sprintf("MBR credit %v, reference %v (exact %v)", got.mbr, want.mbr, mbrExact)
	}
	return ""
}

// twin runs the reference beside a production cell. It wraps the
// cell's channel, to step the reference once per TTI (Update) and over
// each skipped span (CatchUp), and the cell's scheduler, to make the
// reference's decision before the cell's own on every scheduled TTI.
// A TTI's step uses the rates in force when the TTI began: every caller
// in the tree changes a rate between TTIs, never inside one.
type twin struct {
	enb     *ENodeB
	sched   Scheduler
	ch      Channel
	catchUp ChannelCatchUp

	acct   []refAcct
	rates  [][2]float64 // GBR and MBR in force for the open TTI
	served []float64    // bits served in the open TTI
	open   bool         // a TTI has begun and is not yet stepped
	next   int64        // the first TTI the reference has not stepped

	// shadow holds a bearer per production bearer, carrying the
	// reference accounting into the reference decision; states and flows
	// are that decision's scratch.
	shadow []Bearer
	states []FlowState
	flows  []*FlowState

	scheduled int      // TTIs on which both decisions ran
	diffs     []string // one line per TTI whose grants differ
}

// attachTwin puts a twin in front of e's channel and scheduler. The
// cell must not have run yet.
func attachTwin(e *ENodeB) *twin {
	tw := &twin{enb: e, sched: e.sched, ch: e.channel, catchUp: e.catchUp}
	e.sched = twinScheduler{tw}
	if tw.catchUp != nil {
		c := twinCatchUpChannel{twinChannel{tw}}
		e.channel, e.catchUp = c, c
	} else {
		e.channel = twinChannel{tw}
	}
	return tw
}

// grow gives every bearer the cell has a reference.
func (tw *twin) grow() {
	for len(tw.acct) < len(tw.enb.bearers) {
		tw.acct = append(tw.acct, refAcct{})
		tw.rates = append(tw.rates, [2]float64{})
		tw.served = append(tw.served, 0)
		tw.shadow = append(tw.shadow, Bearer{})
		tw.states = append(tw.states, FlowState{})
	}
}

// closeTTI steps the open TTI with the bits served in it, then every
// TTI before upTo that no Update opened, as idle ones at the current
// rates.
func (tw *twin) closeTTI(upTo int64) {
	tw.grow()
	if tw.open {
		for i := range tw.acct {
			tw.acct[i].step(tw.served[i], tw.rates[i][0], tw.rates[i][1])
		}
		tw.open = false
		tw.next++
	}
	for ; tw.next < upTo; tw.next++ {
		for i, b := range tw.enb.bearers {
			tw.acct[i].step(0, b.GBRBits, b.MBRBits)
		}
	}
}

// begin opens TTI tti.
func (tw *twin) begin(tti int64) {
	tw.closeTTI(tti)
	for i, b := range tw.enb.bearers {
		tw.rates[i] = [2]float64{b.GBRBits, b.MBRBits}
		tw.served[i] = 0
	}
	tw.open = true
}

func (tw *twin) allocate(tti int64, flows []*FlowState, rbgSizes []int) {
	tw.flows = tw.flows[:0]
	for _, f := range flows {
		i := f.Bearer.idx
		a, sb := &tw.acct[i], &tw.shadow[i]
		*sb = Bearer{ID: f.Bearer.ID, UE: f.Bearer.UE, Class: f.Bearer.Class,
			GBRBits: tw.rates[i][0], MBRBits: tw.rates[i][1],
			avgTput: a.avg, fastTput: a.fast, gbrCredit: a.gbr, mbrCredit: a.mbr, mbrPrimed: a.primed}
		tw.states[i] = FlowState{Bearer: sb, ITbs: f.ITbs, BitsPerRB: f.BitsPerRB, remaining: f.remaining}
		tw.flows = append(tw.flows, &tw.states[i])
	}
	tw.sched.Allocate(tti, tw.flows, rbgSizes)
	tw.sched.Allocate(tti, flows, rbgSizes)
	tw.scheduled++
	differ := false
	for j, f := range flows {
		differ = differ || f.granted != tw.flows[j].granted
		served := min(int64(TBSBytes(f.ITbs, f.granted)), f.Bearer.queue)
		tw.served[f.Bearer.idx] = float64(served * 8)
	}
	if differ {
		line := fmt.Sprintf("TTI %d, bearer:cell RBs/reference RBs", tti)
		for j, f := range flows {
			line += fmt.Sprintf(" %d:%d/%d", f.Bearer.ID, f.granted, tw.flows[j].granted)
		}
		tw.diffs = append(tw.diffs, line)
	}
}

type twinScheduler struct{ tw *twin }

func (s twinScheduler) Name() string { return s.tw.sched.Name() }
func (s twinScheduler) Allocate(tti int64, flows []*FlowState, rbgSizes []int) {
	s.tw.allocate(tti, flows, rbgSizes)
}

type twinChannel struct{ tw *twin }

func (c twinChannel) NumUEs() int      { return c.tw.ch.NumUEs() }
func (c twinChannel) ITbs(ue int) int  { return c.tw.ch.ITbs(ue) }
func (c twinChannel) Update(tti int64) { c.tw.begin(tti); c.tw.ch.Update(tti) }

type twinCatchUpChannel struct{ twinChannel }

func (c twinCatchUpChannel) CatchUp(fromTTI, toTTI int64) {
	c.tw.closeTTI(toTTI)
	c.tw.catchUp.CatchUp(fromTTI, toTTI)
}

// diffGrants fails t for every TTI whose grants differed since the
// last call.
func (tw *twin) diffGrants(t testing.TB, when string) {
	t.Helper()
	for _, d := range tw.diffs {
		t.Errorf("%s: grants differ from the reference at %s", when, d)
	}
	tw.diffs = tw.diffs[:0]
}

// check runs diffGrants, then holds every bearer's accounting, aged as
// a read would age it, to the reference. Call it between TTIs. The
// rates the tests below set are dyadic per TTI, so every credit sum is
// exact on both sides and the credits must be equal.
func (tw *twin) check(t *testing.T, when string) {
	t.Helper()
	tw.diffGrants(t, when)
	tw.closeTTI(tw.enb.now + 1)
	for i, b := range tw.enb.bearers {
		if d := diffAcct(lazyAcct(b), tw.acct[i], b.GBRBits, b.MBRBits, true, true); d != "" {
			t.Fatalf("%s: bearer %d: %s", when, b.ID, d)
		}
	}
}

// TestSettledSkipMatchesTickEveryTTI drives a cell and its twin through
// randomized sequences: bursts of traffic and rate changes (through the
// cell's setters and the bearer's own) separated by idle spans long
// enough for served bearers to decay into the denormal range, some of
// them crossed by FastForwardIdle instead of TTI by TTI. The cell skips
// every idle bearer; the twin steps all of them every TTI. On
// every TTI the grants must be the same, and every bearer's accounting,
// aged as a read would age it, must match the reference.
func TestSettledSkipMatchesTickEveryTTI(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		for seed := uint64(1); seed <= 2; seed++ {
			runTwinSequence(t, seed)
		}
	})
}

func runTwinSequence(t *testing.T, seed uint64) {
	const bearers = 12
	rng := sim.NewRNG(seed)
	offsets := make([]int64, bearers)
	for i := range offsets {
		offsets[i] = int64(i) * 37
	}
	ch, err := NewCyclicChannel(4, 14, 900, offsets)
	if err != nil {
		t.Fatal(err)
	}
	enb := NewENodeB(ch, TwoPhaseGBRScheduler{})
	for i := 0; i < bearers; i++ {
		class := ClassVideo
		if i%4 == 3 {
			class = ClassData
		}
		if _, err := enb.AddBearer(&Bearer{ID: i, UE: i, Class: class, QueueLimit: 64 << 10}); err != nil {
			t.Fatal(err)
		}
	}
	tw := attachTwin(enb)
	// Rates whose per-TTI accrual is dyadic (37.5, 125 and 312.5 bytes),
	// so that the credits' sums are exact in both accountings.
	rates := []float64{0, 0, 3e5, 1e6, 2.5e6}
	tti := int64(0)
	jumps, longIdle := 0, 0

	mutate := func(kind int) {
		b := enb.bearers[rng.Intn(bearers)]
		rate := rates[rng.Intn(len(rates))]
		switch kind {
		case 0, 1:
			b.Enqueue(int64(1 + rng.Intn(40_000)))
		case 2:
			if err := enb.SetGBR(b.ID, rate); err != nil {
				t.Fatal(err)
			}
		case 3:
			if err := enb.SetMBR(b.ID, rate); err != nil {
				t.Fatal(err)
			}
		case 4:
			b.SetGBR(rate)
		case 5:
			b.SetMBR(rate)
		}
	}
	step := func() {
		enb.RunTTI(tti)
		tw.check(t, fmt.Sprintf("seed %d tti %d", seed, tti))
		tti++
	}

	for round := 0; round < 6; round++ {
		for end := tti + 400; tti < end; {
			for k := rng.Intn(3); k > 0; k-- {
				mutate(rng.Intn(6))
			}
			step()
		}
		idle := int64(2_000 + rng.Intn(4_000))
		if round%2 == 1 {
			idle = 90_000 // past the ~75 s the iterated EWMAs need to stall
		}
		quietMutate := func() {
			switch {
			case rng.Intn(300) == 0:
				mutate(2 + rng.Intn(4))
			case rng.Intn(20_000) == 0:
				mutate(0)
			}
		}
		for end := tti + idle; tti < end; {
			quietMutate()
			step()
			quietMutate()
			if !enb.Idle() || rng.Intn(50) != 0 {
				continue
			}
			// Cross the next stretch in one jump, sometimes with a rate
			// change made between the idle check and the jump.
			if rng.Intn(2) == 0 {
				mutate(2 + rng.Intn(4))
			}
			to := tti + 1 + int64(rng.Intn(3_000))
			enb.FastForwardIdle(tti-1, to)
			tw.check(t, fmt.Sprintf("seed %d after the jump to %d", seed, to))
			tti = to
			jumps++
		}
		longIdle++
	}
	if tw.scheduled < 2_000 || jumps == 0 || longIdle == 0 {
		t.Fatalf("seed %d: the sequence exercised too little: %d scheduled TTIs, %d jumps", seed, tw.scheduled, jumps)
	}
	denormal := 0
	for i, b := range enb.bearers {
		if b.everServed && tw.acct[i].avg < 0x1p-1022 {
			denormal++
		}
	}
	if denormal == 0 {
		t.Fatalf("seed %d: no bearer that carried traffic decayed into the denormal range; the long idle spans are too short", seed)
	}
}

// TestEWMAStallsAtDenormal pins why the oracle accepts two averages
// that both lie below the normal range: the iterated idle decay
// a -= a/N does not reach zero, it stalls at a non-zero denormal about
// 75 simulated seconds after the last service, where every further step
// is a no-op; the closed form goes on to zero.
func TestEWMAStallsAtDenormal(t *testing.T) {
	var ref refAcct
	ref.step(12_000, 0, 0)
	aged := &Bearer{avgTput: ref.avg, fastTput: ref.fast}
	ticks := 0
	for prev := (refAcct{}); ref != prev; ticks++ {
		if ticks > 200_000 {
			t.Fatal("the iterated idle decay never reached a fixed point")
		}
		prev = ref
		ref.step(0, 0, 0)
	}
	if ref.avg == 0 || ref.fast == 0 || ref.avg >= 0x1p-1022 || ref.fast >= 0x1p-1022 {
		t.Fatalf("the iterated decay stalled at avg %g, fast %g; want both denormal and non-zero", ref.avg, ref.fast)
	}
	if ticks < 60_000 || ticks > 90_000 {
		t.Fatalf("fixed point reached after %d idle TTIs, expected about 75 000", ticks)
	}
	aged.ageIdle(int64(ticks))
	if aged.avgTput != 0 || aged.fastTput != 0 || !closeAvg(aged.avgTput, ref.avg) {
		t.Fatalf("aged over the same %d TTIs to avg %g, fast %g; want zero, within the oracle's tolerance", ticks, aged.avgTput, aged.fastTput)
	}
}

// checkLazyAging runs one bearer through ops and holds its lazy
// accounting to the reference after each. Each op is four bytes: a
// kind, then three of argument. Kinds: serve a burst, sit idle TTI by
// TTI, jump an idle span of up to 10^6 TTIs with FastForwardIdle, or
// rewrite the GBR or MBR to an arbitrary rate (zero included).
func checkLazyAging(t *testing.T, ops []byte) {
	t.Helper()
	enb := NewENodeB(NewUniformStaticChannel(1, 26), PFScheduler{})
	b := &Bearer{ID: 0, UE: 0, Class: ClassVideo}
	if _, err := enb.AddBearer(b); err != nil {
		t.Fatal(err)
	}
	var ref refAcct
	tti := int64(0)
	// gbrAt and mbrAt count the idle reference steps that have ended on
	// the credit's upper clamp since the rates last changed. Past a few,
	// the exact sum the lazy credit takes is above the clamp by more
	// than any rounding, so both must sit on it.
	gbrAt, mbrAt := 0, 0
	stepRef := func(servedBits float64) {
		ref.step(servedBits, b.GBRBits, b.MBRBits)
		gbrAt, mbrAt = gbrAt+1, mbrAt+1
		if servedBits > 0 || ref.gbr != b.GBRBits/8 {
			gbrAt = 0
		}
		if servedBits > 0 || ref.mbr != mbrBurstBytes(b.MBRBits) {
			mbrAt = 0
		}
	}
	run := func() {
		before := b.TotalStats().Bytes
		enb.RunTTI(tti)
		stepRef(float64((b.TotalStats().Bytes - before) * 8))
		tti++
	}
	rate := func(x uint32) float64 {
		if x%7 == 0 {
			return 0
		}
		return float64(x%10_000_000) + float64(x%13)/7 // arbitrary, rarely dyadic
	}
	for i := 0; i+4 <= len(ops); i += 4 {
		kind := ops[i] % 6
		arg := uint32(ops[i+1])<<16 | uint32(ops[i+2])<<8 | uint32(ops[i+3])
		switch kind {
		case 0: // a burst, drained TTI by TTI (or as far as a low MBR lets it)
			b.Enqueue(int64(1 + arg%200_000))
			for n := 0; n < 3_000 && b.Backlog() > 0; n++ {
				run()
			}
		case 1, 2: // TTIs run one by one
			for n := arg % 3_000; n > 0; n-- {
				run()
			}
		case 3: // an idle span jumped, if the cell is idle
			if !enb.Idle() {
				continue
			}
			k := int64(arg % 1_000_001)
			enb.FastForwardIdle(tti-1, tti+k)
			for j := int64(0); j < k; j++ {
				prev := ref
				stepRef(0)
				if ref == prev { // a fixed point: every further idle step is a no-op
					gbrAt, mbrAt = gbrAt+int(k), mbrAt+int(k)
					break
				}
			}
			tti += k
		case 4:
			b.SetGBR(rate(arg))
			gbrAt, mbrAt = 0, 0
		case 5:
			b.SetMBR(rate(arg))
			gbrAt, mbrAt = 0, 0
		}
		if d := diffAcct(lazyAcct(b), ref, b.GBRBits, b.MBRBits, gbrAt > 4, mbrAt > 4); d != "" {
			t.Fatalf("after op %d (kind %d, arg %d) at tti %d: %s", i/4, kind, arg, tti, d)
		}
	}
}

// TestLazyAgingMatchesIteratedTicks is the oracle over random service
// patterns: bursts, idle runs, jumps of up to 10^6 idle TTIs and GBR/MBR
// rewrites at arbitrary rates.
func TestLazyAgingMatchesIteratedTicks(t *testing.T) {
	seeds := uint64(40)
	if testing.Short() {
		seeds = 8
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := sim.NewRNG(seed)
		ops := make([]byte, 4*60)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		checkLazyAging(t, ops)
	}
}

// FuzzLazyAging lets the fuzzer choose the service pattern, the idle
// gaps and the rate rewrites of checkLazyAging.
func FuzzLazyAging(f *testing.F) {
	f.Add([]byte{0, 0, 40, 0, 1, 0, 1, 0, 3, 15, 66, 64, 0, 0, 8, 0})
	f.Add([]byte{4, 3, 13, 64, 5, 8, 0, 1, 0, 2, 0, 0, 3, 0, 1, 0, 4, 0, 0, 7, 0, 0, 0, 9, 2, 0, 20, 0})
	f.Add([]byte{5, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 50, 4, 0, 0, 14, 3, 255, 255, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*40 {
			ops = ops[:4*40]
		}
		checkLazyAging(t, ops)
	})
}

// TestIdleSeesEnqueueOnSettledBearer: bytes enqueued on an idle bearer
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
	if !enb.Idle() || len(enb.busy) != 0 {
		t.Fatalf("fresh bearers made the cell busy: %d busy", len(enb.busy))
	}
	bs[1].Enqueue(500)
	if enb.Idle() {
		t.Fatal("Idle() missed bytes enqueued on an idle bearer")
	}
	if len(enb.busy) != 1 || enb.busy[0] != bs[1] {
		t.Fatalf("enqueued bearer did not join the busy list: %v", enb.busy)
	}
}

// TestIdleCellVisitsNoBearer: once every bearer is idle, RunTTI and
// FastForwardIdle touch none of them. 380 bearers are each served (all
// 380 busy at first) and then sit idle while the cell runs TTI by TTI
// with jumps of 10^5 TTIs mixed in. Every bearer's accounting is
// swapped for a sentinel no tick or aging would leave alone, the
// scheduler fails the test if it is called, and the TTIs allocate
// nothing. Reading a bearer afterwards ages it over the whole span in
// one step.
func TestIdleCellVisitsNoBearer(t *testing.T) {
	const bearers = 380
	enb := NewENodeB(NewUniformStaticChannel(bearers, 12), TwoPhaseGBRScheduler{})
	for i := 0; i < bearers; i++ {
		b := &Bearer{ID: i, UE: i, Class: ClassVideo}
		if _, err := enb.AddBearer(b); err != nil {
			t.Fatal(err)
		}
		b.SetGBR(1e6)
		b.Enqueue(200)
	}
	if len(enb.busy) != bearers {
		t.Fatalf("%d of %d enqueued bearers busy", len(enb.busy), bearers)
	}
	tti := int64(0)
	for ; !enb.Idle(); tti++ {
		enb.RunTTI(tti)
	}
	for _, b := range enb.bearers {
		if !b.everServed {
			t.Fatalf("bearer %d was never served", b.ID)
		}
	}
	b0 := enb.bearers[0]
	kept := *b0

	const sentinel = 12345.0
	for _, b := range enb.bearers {
		b.avgTput, b.fastTput, b.gbrCredit = sentinel, sentinel, sentinel
	}
	enb.sched = failScheduler{t}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 50; i++ {
			enb.RunTTI(tti)
			tti++
		}
		enb.FastForwardIdle(tti-1, tti+100_000)
		tti += 100_000
	})
	if allocs != 0 {
		t.Errorf("idle TTIs and jumps allocated %v times per round", allocs)
	}
	for _, b := range enb.bearers {
		if b.avgTput != sentinel || b.fastTput != sentinel || b.gbrCredit != sentinel {
			t.Fatalf("bearer %d was visited: avg %v fast %v credit %v", b.ID, b.avgTput, b.fastTput, b.gbrCredit)
		}
	}

	// A read ages bearer 0 over every TTI since it was last served.
	b0.avgTput, b0.fastTput, b0.gbrCredit = kept.avgTput, kept.fastTput, kept.gbrCredit
	b0.Enqueue(1)
	k := float64(tti - 1 - kept.aged)
	if want := kept.fastTput * math.Pow(1-1.0/fastTputTTIs, k); b0.fastTput != want || b0.aged != tti-1 {
		t.Errorf("bearer 0 aged to TTI %d with fast average %v, want TTI %d and %v", b0.aged, b0.fastTput, tti-1, want)
	}
	if want := 1e6 / 8; b0.gbrCredit != want {
		t.Errorf("aged GBR credit %v, want the clamp %v", b0.gbrCredit, want)
	}
}

// failScheduler fails the test if a TTI schedules anything.
type failScheduler struct{ t *testing.T }

func (failScheduler) Name() string { return "fail" }
func (s failScheduler) Allocate(tti int64, flows []*FlowState, _ []int) {
	s.t.Fatalf("tti %d scheduled %d flows on an idle cell", tti, len(flows))
}

// TestRateChangeAgesUnderTheOldRate: SetGBR and SetMBR on a bearer idle
// for k TTIs leave the credits k ticks at the old rate would, and from
// then on the credits accrue at the new rate. The rates are dyadic per
// TTI, so the comparison is exact.
func TestRateChangeAgesUnderTheOldRate(t *testing.T) {
	for _, k := range []int64{1, 3, 40, 700, 5_000} {
		enb := NewENodeB(NewUniformStaticChannel(1, 20), TwoPhaseGBRScheduler{})
		b := &Bearer{ID: 0, UE: 0, Class: ClassVideo}
		if _, err := enb.AddBearer(b); err != nil {
			t.Fatal(err)
		}
		b.SetGBR(4e5)
		b.SetMBR(2e6)
		var ref refAcct
		tti := int64(0)
		runTTI := func() {
			before := b.TotalStats().Bytes
			enb.RunTTI(tti)
			ref.step(float64((b.TotalStats().Bytes-before)*8), b.GBRBits, b.MBRBits)
			tti++
		}
		// Over-serve: the GBR credit goes negative, the MBR bucket drains.
		b.Enqueue(60_000)
		for b.Backlog() > 0 {
			runTTI()
		}
		if ref.gbr >= 0 {
			t.Fatalf("k=%d: the burst left a GBR credit of %v, want it owed", k, ref.gbr)
		}
		// k idle TTIs, the second half jumped.
		for i := int64(0); i < k/2; i++ {
			runTTI()
		}
		enb.FastForwardIdle(tti-1, tti+k-k/2)
		for i := k / 2; i < k; i++ {
			ref.step(0, b.GBRBits, b.MBRBits)
		}
		tti += k - k/2

		b.SetGBR(1.2e6)
		if b.gbrCredit != ref.gbr || b.mbrCredit != ref.mbr {
			t.Fatalf("k=%d: after SetGBR credits %v/%v, %d ticks at the old rates give %v/%v", k, b.gbrCredit, b.mbrCredit, k, ref.gbr, ref.mbr)
		}
		for i := 0; i < 25; i++ {
			runTTI()
		}
		b.SetMBR(6e5)
		if b.gbrCredit != ref.gbr || b.mbrCredit != ref.mbr {
			t.Fatalf("k=%d: after SetMBR credits %v/%v, reference at the new GBR %v/%v", k, b.gbrCredit, b.mbrCredit, ref.gbr, ref.mbr)
		}
		for i := 0; i < 400; i++ {
			runTTI()
		}
		b.Enqueue(1)
		if b.gbrCredit != ref.gbr || b.mbrCredit != ref.mbr {
			t.Fatalf("k=%d: 400 TTIs after SetMBR credits %v/%v, reference %v/%v", k, b.gbrCredit, b.mbrCredit, ref.gbr, ref.mbr)
		}
	}
}

// busyIDs lists the IDs in e's busy list, in order.
func busyIDs(e *ENodeB) []int {
	ids := make([]int, len(e.busy))
	for i, b := range e.busy {
		ids[i] = b.ID
	}
	return ids
}

// TestReadmissionEdgeCases walks the ways an idle bearer comes back
// into the per-TTI passes, with the twin checking grants and aged
// accounting after every TTI: writes that must not wake it, several
// writes before one TTI, bytes refused by QueueLimit, bytes enqueued by
// a delivery in the middle of a TTI, bytes on the wake TTI of a jump,
// an empty jump, and wakes in descending bearer order around bearers
// already busy.
func TestReadmissionEdgeCases(t *testing.T) {
	t.Run("sequential", runReadmissionEdgeCases)
}

func runReadmissionEdgeCases(t *testing.T) {
	const bearers = 6
	enb := NewENodeB(NewUniformStaticChannel(bearers, 14), TwoPhaseGBRScheduler{})
	bs := make([]*Bearer, bearers)
	for i := range bs {
		bs[i] = &Bearer{ID: i, UE: i, Class: ClassVideo, QueueLimit: 20_000}
		if _, err := enb.AddBearer(bs[i]); err != nil {
			t.Fatal(err)
		}
	}
	tw := attachTwin(enb)
	tti := int64(0)
	step := func() {
		t.Helper()
		enb.RunTTI(tti)
		tw.check(t, fmt.Sprintf("tti %d", tti))
		tti++
	}
	drain := func() {
		t.Helper()
		for !enb.Idle() {
			step()
		}
	}
	wantBusy := func(when string, want ...int) {
		t.Helper()
		if got := busyIDs(enb); !slices.Equal(got, want) {
			t.Fatalf("%s: busy = %v, want %v", when, got, want)
		}
	}

	// Bearer 0 carries traffic at a GBR and an MBR, then sits idle past
	// the point where the iterated averages stall.
	bs[0].SetGBR(3e5)
	bs[0].SetMBR(2.5e6)
	bs[0].Enqueue(15_000)
	drain()
	enb.FastForwardIdle(tti-1, tti+90_000)
	tti += 90_000
	tw.check(t, "after the long jump")

	// Rate changes, and enqueues of nothing, wake nothing.
	bs[0].SetGBR(1e6)
	bs[0].SetGBR(3e5)
	bs[1].SetMBR(1e6)
	if bs[1].Enqueue(0) != 0 || bs[1].Enqueue(-5) != 0 {
		t.Fatal("Enqueue accepted a non-positive count")
	}
	wantBusy("after rate changes and empty enqueues")
	step()

	// Three writes to one bearer before a TTI: busy once.
	bs[2].SetMBR(1e6)
	bs[2].Enqueue(4_000)
	bs[2].SetGBR(3e5)
	bs[2].Enqueue(1_000)
	// Bytes beyond QueueLimit: part of the first burst is refused, all
	// of the second.
	if got := bs[3].Enqueue(100_000); got != bs[3].QueueLimit {
		t.Fatalf("Enqueue past the limit accepted %d of %d", got, bs[3].QueueLimit)
	}
	if got := bs[3].Enqueue(10); got != 0 {
		t.Fatalf("Enqueue on a full queue accepted %d", got)
	}
	wantBusy("after writes to two idle bearers", 2, 3)
	drain()

	// A delivery on bearer 1 enqueues into idle bearers 0 and 5, in the
	// middle of the TTI: 5 is ticked in that TTI, after its aging, and
	// scheduled from the next.
	woke := false
	bs[1].OnDeliver = sim.HandlerFunc(func(int64) {
		if !woke {
			woke = true
			bs[5].Enqueue(3_000)
			bs[0].Enqueue(2_000)
		}
	})
	bs[1].Enqueue(500)
	step()
	if !woke {
		t.Fatal("bearer 1 was not served")
	}
	wantBusy("after the mid-TTI enqueues", 0, 5)
	drain()
	bs[1].OnDeliver = nil

	// Bytes that arrive on the wake TTI, after the jump and before
	// RunTTI.
	to := tti + 700
	enb.FastForwardIdle(tti-1, to)
	tw.check(t, "after a 700-TTI jump")
	bs[3].Enqueue(9_000)
	bs[4].Enqueue(9_000)
	tti = to
	step()
	drain()

	// A jump over no TTI at all, with a rate change before it.
	bs[5].SetMBR(3e5)
	enb.FastForwardIdle(tti-1, tti)
	tw.check(t, "after an empty jump")
	step()

	// Wakes in descending bearer order around bearers already busy:
	// busy stays in bearer order.
	bs[1].Enqueue(9_000)
	bs[4].Enqueue(9_000)
	step()
	for _, i := range []int{5, 3, 0} {
		bs[i].Enqueue(2_000)
	}
	wantBusy("after wakes in descending order", 0, 1, 3, 4, 5)
	drain()
	if tw.scheduled < 20 {
		t.Fatalf("only %d scheduled TTIs", tw.scheduled)
	}
}

// TestReadmitWorstCaseAllocs: every bearer of a 380-bearer cell woken
// in one TTI, in descending order (each wake inserts at the front),
// fills the busy list to its worst-case length; the list was sized for
// that when the cell was built, so the wakes and the TTIs that drain
// them allocate nothing.
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
	room, longest := cap(enb.busy), 0
	allocs := testing.AllocsPerRun(100, func() {
		for i := bearers - 1; i >= 0; i-- {
			enb.bearers[i].Enqueue(1)
		}
		longest = max(longest, len(enb.busy))
		for !enb.Idle() {
			tti++
			enb.RunTTI(tti)
		}
	})
	if allocs != 0 {
		t.Errorf("waking and draining %d bearers: %v allocs per round, want 0", bearers, allocs)
	}
	if longest != bearers || cap(enb.busy) != room {
		t.Errorf("busy list reached %d of %d bearers, capacity %d -> %d", longest, bearers, room, cap(enb.busy))
	}
}
