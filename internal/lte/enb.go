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
	catchUp  ChannelCatchUp // channel's extension (nil if absent), resolved by NewENodeB
	sched    Scheduler
	bearers  []*Bearer
	rbgSizes []int // the package's RBGSizes table, read-only

	// index is the bearers in ascending ID order, the first registration
	// of each ID only: BearerByID binary-searches it.
	index []*Bearer

	// busy is the bearers with queued bytes, in bearer order (the
	// scheduler must see the active set in that order): every per-TTI
	// pass walks busy only. A bearer joins it when Enqueue gives it a
	// backlog and leaves it at the end of the first TTI that finds its
	// queue empty. The accounting of a bearer outside it is aged when it
	// is next read (Bearer.age), so an idle bearer costs a TTI nothing.
	// busy has room for every bearer (NewENodeB sizes it for one bearer
	// per UE, AddBearer keeps it at least that large), so it never grows
	// during a run.
	//
	// bearers, busy and index are thirds of one backing array, each
	// capped at its third: a table that outgrows it moves to storage of
	// its own rather than writing into its neighbour.
	busy []*Bearer
	// now is the last TTI the cell has accounted for: the last RunTTI's,
	// or the last one a FastForwardIdle jump skipped. TTIs count from 0.
	now int64

	// flowStates is a persistent per-bearer scratch slice, parallel to
	// bearers: the Bearer pointer and index are written once at AddBearer
	// time, so the per-TTI refresh only touches the volatile fields
	// (iTbs, backlog, grant) and only for backlogged bearers. active is
	// the subset handed to the scheduler, rebuilt each TTI in storage
	// sized like busy's.
	flowStates []FlowState
	active     []*FlowState
}

// NewENodeB creates a cell with the given channel and scheduler. The
// per-bearer tables are sized for one bearer per UE up front (more
// still fit, by growing), so neither assembling a cell nor its first
// busy TTIs regrow them.
func NewENodeB(ch Channel, sched Scheduler) *ENodeB {
	n := ch.NumUEs()
	tables := make([]*Bearer, 3*n)
	catchUp, _ := ch.(ChannelCatchUp)
	return &ENodeB{
		channel:    ch,
		catchUp:    catchUp,
		sched:      sched,
		bearers:    tables[0:0:n],
		busy:       tables[n : n : 2*n],
		index:      tables[2*n : 2*n : 3*n],
		now:        -1,
		flowStates: make([]FlowState, 0, n),
		active:     make([]*FlowState, 0, n),
		rbgSizes:   RBGSizes(),
	}
}

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
	b.enb, b.idx, b.aged = e, len(e.bearers), e.now
	e.bearers = append(e.bearers, b)
	e.busy = slices.Grow(e.busy, len(e.bearers)-len(e.busy))
	e.flowStates = append(e.flowStates, FlowState{Bearer: b})
	if b.queue > 0 { // enqueued into before it had a cell
		e.wake(b)
	}
	if i, dup := e.find(b.ID); !dup {
		e.index = slices.Insert(e.index, i, b)
	}
	return b, nil
}

// wake puts a bearer that Enqueue has just given a backlog into busy, at
// its place in bearer order. busy is walked only by passes that call
// out to nothing that can enqueue, so it may change at any other time.
func (e *ENodeB) wake(b *Bearer) {
	b.busy = true
	i, _ := slices.BinarySearchFunc(e.busy, b.idx, func(o *Bearer, idx int) int { return cmp.Compare(o.idx, idx) })
	e.busy = slices.Insert(e.busy, i, b)
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

	// Build the schedulable set: the busy bearers. Idle bearers'
	// FlowStates are not touched at all — only the volatile fields of
	// active flows are refreshed (Bearer is fixed at AddBearer).
	e.active = e.active[:0]
	for _, b := range e.busy {
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

	// Tick every busy bearer, served or not — including one that a
	// delivery above gave a backlog, whose accounting wake brought up
	// to the previous TTI. A bearer left with an empty queue leaves busy
	// here; from now on its accounting lags until it is next read.
	n := 0
	for _, b := range e.busy {
		b.tick(b.ttiServedBits)
		b.ttiServedBits = 0
		if b.queue > 0 {
			e.busy[n] = b
			n++
		} else {
			b.busy, b.aged = false, tti
		}
	}
	e.busy = e.busy[:n]
	e.now = tti
	return res
}

// Idle reports whether no bearer has queued bytes — together with an
// inert transport layer and an empty event horizon, the condition under
// which the kernel may fast-forward past this cell's TTIs.
func (e *ENodeB) Idle() bool { return len(e.busy) == 0 }

// CanFastForward reports whether the cell's channel model supports
// byte-exact catch-up over skipped TTIs.
func (e *ENodeB) CanFastForward() bool { return e.catchUp != nil }

// FastForwardIdle replays the effect of RunTTI for every TTI in
// (fromTTI, toTTI) exclusive, under the precondition that the cell was
// idle for the whole span (no backlog, so no scheduling and no service).
// The channel catches up its internal state (including RNG consumption);
// the skipped TTIs are idle ones for every bearer, aged with the rest
// when each is next read. The kernel calls RunTTI(toTTI) itself on the
// wake TTI. Results are byte-identical to the naive per-TTI loop.
func (e *ENodeB) FastForwardIdle(fromTTI, toTTI int64) {
	if e.catchUp != nil {
		e.catchUp.CatchUp(fromTTI, toTTI)
	}
	e.now = toTTI - 1
}
