package lte

import (
	"cmp"
	"fmt"
	"slices"
)

// ENodeB is the cell: it owns the bearers, drives the channel, and runs
// the scheduler once per TTI. It is single-goroutine by design — the
// simulation kernel calls RunTTI from its loop.
type ENodeB struct {
	channel  Channel
	sched    Scheduler
	bearers  []*Bearer
	rbgSizes []int // the package's RBGSizes table, read-only

	// index is the bearers in ascending ID order, the first registration
	// of each ID only: BearerByID binary-searches it.
	index []*Bearer

	// live holds the bearers that are not settled. A bearer is settled
	// (Bearer.settled) when it has no backlog and an idle tick provably
	// leaves its accounting state bit-identical at its current GBR/MBR
	// (Bearer.tickIdleOnce); every per-TTI pass — active-set scan,
	// accounting, Idle, FastForwardIdle — walks live only, so the skipped
	// ticks are exactly the ticks that were no-ops. live stays in bearer
	// order (the scheduler must see the active set in that order). A
	// settled bearer is a flag and costs a pass nothing: Enqueue, SetGBR
	// and SetMBR stir it — append it to stirred, once (stir clears the
	// flag) — and readmit moves the listed ones back into live. A
	// retired bearer (Retire) has left both lists for good. Both
	// slices have room for every bearer (NewENodeB sizes them for one
	// bearer per UE, AddBearer keeps them at least that large), so
	// neither grows during a run.
	//
	// bearers, live, stirred and index are quarters of one backing
	// array, each capped at its quarter: a table that outgrows it moves
	// to storage of its own rather than writing into its neighbour.
	live    []*Bearer
	stirred []*Bearer

	// flowStates is a persistent per-bearer scratch slice, parallel to
	// bearers: the Bearer pointer and index are written once at AddBearer
	// time, so the per-TTI refresh only touches the volatile fields
	// (iTbs, backlog, grant) and only for backlogged bearers. active is
	// the subset handed to the scheduler, rebuilt each TTI in storage
	// sized like live's.
	flowStates []FlowState
	active     []*FlowState
}

// NewENodeB creates a cell with the given channel and scheduler. The
// per-bearer tables are sized for one bearer per UE up front (more
// still fit, by growing), so neither assembling a cell nor its first
// busy TTIs regrow them.
func NewENodeB(ch Channel, sched Scheduler) *ENodeB {
	n := ch.NumUEs()
	tables := make([]*Bearer, 4*n)
	return &ENodeB{
		channel:    ch,
		sched:      sched,
		bearers:    tables[0:0:n],
		live:       tables[n : n : 2*n],
		stirred:    tables[2*n : 2*n : 3*n],
		index:      tables[3*n : 3*n : 4*n],
		flowStates: make([]FlowState, 0, n),
		active:     make([]*FlowState, 0, n),
		rbgSizes:   RBGSizes(),
	}
}

// SetScheduler swaps the scheduler, e.g. between experiment arms.
func (e *ENodeB) SetScheduler(s Scheduler) { e.sched = s }

// Scheduler returns the active scheduler.
func (e *ENodeB) Scheduler() Scheduler { return e.sched }

// Channel returns the channel model.
func (e *ENodeB) Channel() Channel { return e.channel }

// AddBearer registers a bearer with the cell and returns it. The UE
// index must be valid for the channel model. The bearer is indexed by ID
// so BearerByID (the PCEF pathway, hit on every GBR update) is a binary
// search; on a duplicate ID the first registration wins, preserving the
// old linear-scan semantics.
func (e *ENodeB) AddBearer(b *Bearer) (*Bearer, error) {
	if b.UE < 0 || b.UE >= e.channel.NumUEs() {
		return nil, fmt.Errorf("lte: bearer %d references UE %d, channel has %d UEs", b.ID, b.UE, e.channel.NumUEs())
	}
	b.enb, b.idx = e, len(e.bearers)
	e.bearers = append(e.bearers, b)
	e.stirred = slices.Grow(e.stirred, len(e.bearers)-len(e.stirred))
	e.flowStates = append(e.flowStates, FlowState{Bearer: b})
	// A new bearer starts live; its first accounting pass settles it if
	// it is idle.
	e.live = append(e.live, b)
	if i, dup := e.find(b.ID); !dup {
		e.index = slices.Insert(e.index, i, b)
	}
	return b, nil
}

// find returns the position in index of the bearer with the given ID,
// or where one would be inserted, and whether there is one.
func (e *ENodeB) find(id int) (int, bool) {
	return slices.BinarySearchFunc(e.index, id, func(b *Bearer, id int) int { return cmp.Compare(b.ID, id) })
}

// Bearers returns the registered bearers. The slice must not be modified.
func (e *ENodeB) Bearers() []*Bearer { return e.bearers }

// BearerByID returns the bearer with the given ID, or nil: a binary
// search of the index AddBearer maintains.
func (e *ENodeB) BearerByID(id int) *Bearer {
	if i, ok := e.find(id); ok {
		return e.index[i]
	}
	return nil
}

// SetGBR updates a bearer's guaranteed bit rate — the PCEF/Continuous GBR
// Updater pathway.
func (e *ENodeB) SetGBR(bearerID int, gbrBits float64) error {
	b := e.BearerByID(bearerID)
	if b == nil {
		return fmt.Errorf("lte: no bearer with ID %d", bearerID)
	}
	b.SetGBR(gbrBits)
	return nil
}

// SetMBR updates a bearer's maximum bit rate.
func (e *ENodeB) SetMBR(bearerID int, mbrBits float64) error {
	b := e.BearerByID(bearerID)
	if b == nil {
		return fmt.Errorf("lte: no bearer with ID %d", bearerID)
	}
	b.SetMBR(mbrBits)
	return nil
}

// TTIResult summarises one TTI for the caller.
type TTIResult struct {
	// ServedBytes is the total bytes drained across all bearers.
	ServedBytes int64
	// UsedRBs is the number of RBs granted to flows with backlog.
	UsedRBs int
}

// RunTTI advances the channel, schedules the TTI, drains the bearer
// queues, and updates per-bearer accounting. It must be called exactly
// once per TTI in increasing TTI order.
func (e *ENodeB) RunTTI(tti int64) TTIResult {
	e.channel.Update(tti)

	// Build the schedulable set: live bearers with backlog. Idle
	// bearers' FlowStates are not touched at all — only the volatile
	// fields of active flows are refreshed (Bearer is fixed at
	// AddBearer).
	e.readmit()
	e.active = e.active[:0]
	for _, b := range e.live {
		if b.queue <= 0 {
			continue
		}
		f := &e.flowStates[b.idx]
		f.ITbs = e.channel.ITbs(b.UE)
		f.BitsPerRB = BitsPerRB(f.ITbs)
		f.remaining = b.queue
		f.granted = 0
		e.active = append(e.active, f)
	}

	var res TTIResult
	if len(e.active) > 0 {
		e.sched.Allocate(tti, e.active, e.rbgSizes)
		for _, f := range e.active {
			if f.granted == 0 {
				continue
			}
			capBytes := int64(TBSBytes(f.ITbs, f.granted))
			served := f.Bearer.serve(capBytes, f.granted)
			res.ServedBytes += served
			res.UsedRBs += f.granted
			f.Bearer.ttiServedBits = float64(served * 8)
		}
	}

	// Throughput averages decay every TTI for every live bearer; the
	// ones the tick proves settled leave the live set here. Only a bearer
	// whose slow average has already left the normal range, and that was
	// neither served nor left backlogged, is even tested; the average
	// comes first because that branch predicts (whether a busy bearer was
	// served in a given TTI does not).
	n := 0
	for _, b := range e.live {
		if b.avgTput < minNormalTput && b.ttiServedBits == 0 && b.queue == 0 {
			n = e.keepLive(n, b, b.tickIdleOnce())
			continue
		}
		b.tick(b.ttiServedBits)
		b.ttiServedBits = 0
		e.live[n] = b
		n++
	}
	e.live = e.live[:n]
	return res
}

// keepLive is the body of the loops that filter live in place: b goes
// back into live at position n, or — settled — drops out of it. It
// returns the next free position.
func (e *ENodeB) keepLive(n int, b *Bearer, settled bool) int {
	if settled {
		b.settled = true
		return n
	}
	e.live[n] = b
	return n + 1
}

// readmit moves every bearer stirred since the last call (Bearer.stir)
// back into the live set, at its place in bearer order. It runs at the
// top of every per-TTI pass, so a change made at any point between
// passes is honoured by the next one.
func (e *ENodeB) readmit() {
	for _, b := range e.stirred {
		i := len(e.live)
		e.live = append(e.live, b)
		for ; i > 0 && e.live[i-1].idx > b.idx; i-- {
			e.live[i] = e.live[i-1]
		}
		e.live[i] = b
	}
	e.stirred = e.stirred[:0]
}

// Retire takes a bearer out of the cell's per-TTI passes for good: its
// flow has ended and will never enqueue another byte, so no scheduler
// will see it again. Its accounting state (the throughput averages and
// the GBR/MBR credits) freezes where it stands; only the scheduler reads
// that state, and only for a backlogged bearer. Nothing re-admits a
// retired bearer: SetGBR and SetMBR record the rate and stir nothing,
// and Enqueue panics. Idle and FastForwardIdle walk live, so they skip
// it, and the fast-forward replay no longer decays it. b must have no
// backlog. The window and total statistics stay readable.
func (e *ENodeB) Retire(b *Bearer) {
	if b.queue > 0 {
		panic(fmt.Sprintf("lte: retire bearer %d with %d bytes queued", b.ID, b.queue))
	}
	if !b.settled {
		// Unsettled, b is in live or (stirred since the last pass)
		// waiting in stirred; settled, it is in neither.
		e.live = removeBearer(e.live, b)
		e.stirred = removeBearer(e.stirred, b)
	}
	b.settled, b.retired = false, true
}

// removeBearer deletes b from list, keeping the order of the rest.
func removeBearer(list []*Bearer, b *Bearer) []*Bearer {
	if i := slices.Index(list, b); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// Idle reports whether no bearer has queued bytes — together with an
// inert transport layer and an empty event horizon, the condition under
// which the kernel may fast-forward past this cell's TTIs.
func (e *ENodeB) Idle() bool {
	e.readmit()
	for _, b := range e.live {
		if b.queue > 0 {
			return false
		}
	}
	return true
}

// CanFastForward reports whether the cell's channel model supports
// byte-exact catch-up over skipped TTIs.
func (e *ENodeB) CanFastForward() bool {
	_, ok := e.channel.(ChannelCatchUp)
	return ok
}

// FastForwardIdle replays the effect of RunTTI for every TTI in
// (fromTTI, toTTI) exclusive, under the precondition that the cell was
// idle for the whole span (no backlog, so no scheduling and no service).
// The channel catches up its internal state (including RNG consumption)
// and every live bearer replays its idle accounting decay, settling if
// the replay reaches its fixed point. The kernel calls RunTTI(toTTI)
// itself on the wake TTI. Results are byte-identical to the naive
// per-TTI loop.
func (e *ENodeB) FastForwardIdle(fromTTI, toTTI int64) {
	if cc, ok := e.channel.(ChannelCatchUp); ok {
		cc.CatchUp(fromTTI, toTTI)
	}
	k := toTTI - fromTTI - 1
	if k <= 0 {
		return
	}
	e.readmit()
	n := 0
	for _, b := range e.live {
		n = e.keepLive(n, b, b.tickIdle(k))
	}
	e.live = e.live[:n]
}
