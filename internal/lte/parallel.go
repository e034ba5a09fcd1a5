package lte

import "github.com/flare-sim/flare/internal/sim"

// Intra-cell parallelism: RunTTI's per-bearer work split across a
// worker pool with every observable reduction folded in bearer-ID
// order, so a parallel TTI is byte-identical to a sequential one.
//
// The TTI decomposes into phases with different sharing structure:
//
//	channel update   — parallel per UE when the channel implements
//	                   RangeUpdater (pure function of the TTI per UE);
//	                   sequential otherwise (the mobility random walk
//	                   consumes a shared RNG stream in UE order).
//	active-set build — volatile FlowState refresh is per-bearer
//	                   independent (parallel over the live set, via a
//	                   per-bearer mask); the compaction into the
//	                   scheduler's active slice is a sequential scan in
//	                   bearer order, so the scheduler sees exactly the
//	                   sequential slice.
//	Allocate         — inherently sequential: every scheduler here is a
//	                   sticky argmax whose pick at RBG k depends on the
//	                   grants of RBGs 0..k-1.
//	drain            — Bearer.drain touches only its own bearer
//	                   (parallel); the delivery callbacks (transport
//	                   ACKs → player → driver, which may draw RNG) fire
//	                   in the sequential fold below, in bearer-ID order
//	                   — the same order serve interleaves them in the
//	                   sequential loop.
//	decay            — Bearer.endTTI is pure per-bearer accounting
//	                   (parallel over the live set); which bearers it
//	                   found settled comes back through the mask, and
//	                   the move out of the live set is a sequential
//	                   scan.
type enbParallel struct {
	chanPhase  enbChanPhase
	buildPhase enbBuildPhase
	drainPhase enbDrainPhase
	decayPhase enbDecayPhase
	// mask is one flag per live bearer: "backlogged" out of the build
	// phase, "settled" out of the decay phase.
	mask []bool
}

// SetWorkerPool attaches (or with nil detaches) a worker pool to the
// cell. With a pool of two or more workers RunTTI splits its
// per-bearer phases across the pool; results are byte-identical to the
// sequential path. The pool must not be shared with another ENodeB
// that runs concurrently.
func (e *ENodeB) SetWorkerPool(p *sim.WorkerPool) {
	if p == nil || p.Workers() == 1 {
		e.pool = nil
		e.par = nil
		return
	}
	e.pool = p
	e.par = &enbParallel{
		chanPhase:  enbChanPhase{e: e},
		buildPhase: enbBuildPhase{e: e},
		drainPhase: enbDrainPhase{e: e},
		decayPhase: enbDecayPhase{e: e},
	}
	if ru, ok := e.channel.(RangeUpdater); ok {
		e.par.chanPhase.ru = ru
	}
}

// enbChanPhase fans the channel update out over UE ranges.
type enbChanPhase struct {
	e   *ENodeB
	ru  RangeUpdater
	tti int64
}

func (p *enbChanPhase) RunRange(lo, hi int) { p.ru.UpdateRange(p.tti, lo, hi) }

// enbBuildPhase refreshes the volatile FlowState fields of backlogged
// live bearers and marks them in the mask. Writes are per-bearer
// disjoint; the sequential compaction scan in runTTIParallel turns the
// mask into the scheduler's active slice in bearer order.
type enbBuildPhase struct{ e *ENodeB }

func (p *enbBuildPhase) RunRange(lo, hi int) {
	e := p.e
	for i := lo; i < hi; i++ {
		b := e.live[i]
		if b.queue <= 0 {
			e.par.mask[i] = false
			continue
		}
		f := &e.flowStates[b.idx]
		f.ITbs = e.channel.ITbs(b.UE)
		f.BitsPerRB = BitsPerRB(f.ITbs)
		f.remaining = b.queue
		f.granted = 0
		e.par.mask[i] = true
	}
}

// enbDrainPhase drains granted bearers without firing callbacks; the
// served byte counts land in FlowState.served for the sequential fold.
type enbDrainPhase struct{ e *ENodeB }

func (p *enbDrainPhase) RunRange(lo, hi int) {
	for _, f := range p.e.active[lo:hi] {
		if f.granted == 0 {
			f.served = 0
			continue
		}
		capBytes := int64(TBSBytes(f.ITbs, f.granted))
		f.served = f.Bearer.drain(capBytes, f.granted)
	}
}

// enbDecayPhase runs the per-TTI accounting of the live bearers — pure
// per-bearer math, exactly the sequential loop's endTTI call — and
// records which of them it found settled.
type enbDecayPhase struct{ e *ENodeB }

func (p *enbDecayPhase) RunRange(lo, hi int) {
	e := p.e
	for i := lo; i < hi; i++ {
		e.par.mask[i] = e.live[i].endTTI()
	}
}

// runTTIParallel is RunTTI with the per-bearer phases split across the
// attached pool. Byte-identical to the sequential path: every
// cross-bearer reduction (active-set compaction, served/RB sums,
// delivery callbacks) happens below, in bearer-ID order.
func (e *ENodeB) runTTIParallel(tti int64) TTIResult {
	if e.par.chanPhase.ru != nil {
		e.par.chanPhase.tti = tti
		//flare:allow hotpath frontier: Channel.NumUEs impls return a stored length; the flarebench gates cover them
		n := e.channel.NumUEs()
		e.pool.Do(n, &e.par.chanPhase)
	} else {
		//flare:allow hotpath frontier: the Channel impls (Static/Cyclic/Trace/MobilityChannel) update preallocated per-UE state in place; the flarebench TTI-rate and allocs/op gates cover them
		e.channel.Update(tti)
	}

	e.readmit()
	if len(e.par.mask) < len(e.live) {
		e.par.mask = make([]bool, len(e.bearers))
	}
	e.pool.Do(len(e.live), &e.par.buildPhase)
	e.active = e.active[:0]
	for i, b := range e.live {
		if e.par.mask[i] {
			e.active = append(e.active, &e.flowStates[b.idx])
		}
	}

	var res TTIResult
	if len(e.active) > 0 {
		//flare:allow hotpath frontier: the Scheduler impls (PF/PrioritySet/TwoPhaseGBR/Sliced) allocate only scheduler-owned scratch reused across TTIs; the flarebench gates cover them
		e.sched.Allocate(tti, e.active, e.rbgSizes)
		e.pool.Do(len(e.active), &e.par.drainPhase)
		// Delivery fold: bearer-ID order (active is built in bearer
		// order), so ACK scheduling and any driver RNG draws happen in
		// exactly the sequential sequence.
		for _, f := range e.active {
			if f.granted == 0 {
				continue
			}
			res.ServedBytes += f.served
			res.UsedRBs += f.granted
			f.Bearer.ttiServedBits = float64(f.served * 8)
			if f.served > 0 {
				if cb := f.Bearer.OnDeliver; cb != nil {
					cb(f.served)
				}
			}
		}
	}

	e.pool.Do(len(e.live), &e.par.decayPhase)
	n := 0
	for i, b := range e.live {
		n = e.keepLive(n, b, e.par.mask[i])
	}
	e.live = e.live[:n]
	return res
}
