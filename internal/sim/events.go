package sim

import "container/heap"

// Event is a callback scheduled to run at a specific TTI.
type Event struct {
	// AtTTI is the TTI index at which the event fires.
	AtTTI int64
	// Run is invoked when the clock reaches AtTTI.
	Run func()

	// runArg/arg are the payload-carrying alternative to Run used by
	// ScheduleArg: sharing one func value across many events avoids the
	// per-event closure allocation on high-frequency paths.
	runArg func(int64)
	arg    int64
	// poolable marks handle-free events (ScheduleArg): once fired they
	// are recycled through the queue's free list. Events with handles
	// are never pooled — a caller could Cancel a stale handle and
	// corrupt the recycled event.
	poolable bool

	seq   int64 // tie-break so same-TTI events run in scheduling order
	index int   // heap position; fifoMark in the FIFO lane; -1 once popped or cancelled
}

// index markers for events outside the heap.
const (
	indexDone = -1 // popped or cancelled
	fifoMark  = -2 // queued in the FIFO lane
)

// Cancelled reports whether the event has been removed from its queue.
func (e *Event) Cancelled() bool { return e.index == indexDone && e.Run == nil }

// EventQueue is a priority queue of events ordered by firing TTI.
// Events scheduled for the same TTI fire in the order they were scheduled.
// The zero value is ready to use. EventQueue is not safe for concurrent
// use; the simulation kernel is single-goroutine by design.
//
// Internally the queue is two lanes merged on (AtTTI, seq): a FIFO slice
// for events scheduled in nondecreasing-TTI order (the overwhelmingly
// common case — the transport ACK clock schedules now+RTT/2 every TTI)
// and a binary heap for the rest. FIFO pushes and pops are O(1) with no
// sift traffic; the merge preserves exactly the total order the pure
// heap produced, so the split is invisible to callers.
type EventQueue struct {
	h        eventHeap
	fifo     []*Event
	fifoHead int
	// laneMisses counts the poolable events in a row that the FIFO lane
	// turned away because its tail fires later (see enqueue).
	laneMisses int
	free       []*Event
	// slab is the arena new events are carved from when the free list is
	// empty: one bulk allocation per eventSlabSize events instead of one
	// per event. Handle-bearing events (Schedule) are never recycled —
	// without the slab each of them is its own allocation, and the
	// poolable warm-up path allocates one Event at a time too.
	slab    []Event
	count   int
	nextSeq int64
}

// eventSlabSize is the arena granularity: large enough to amortise the
// allocation, small enough that an idle queue doesn't pin much memory.
const eventSlabSize = 256

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return q.count }

// newEvent takes an Event from the free list or allocates one.
func (q *EventQueue) newEvent(atTTI int64) *Event {
	var ev *Event
	if n := len(q.free); n > 0 {
		ev = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		if len(q.slab) == 0 {
			q.slab = make([]Event, eventSlabSize)
		}
		ev = &q.slab[0]
		q.slab = q.slab[1:]
	}
	*ev = Event{AtTTI: atTTI, seq: q.nextSeq, index: indexDone}
	q.nextSeq++
	return ev
}

// enqueue routes the event to the FIFO lane when it is poolable (the
// high-frequency periodic traffic, which is scheduled in nondecreasing
// TTI order in practice) and respects the lane's nondecreasing-TTI
// invariant; everything else goes to the heap. Handle-bearing events
// are kept out of the lane so a single far-future timer cannot wedge
// into the tail and force the steady periodic stream into the heap.
// A poolable one can still wedge there (a session's departure,
// scheduled at run start), so the lane counts the events it turns away
// in a row: once they outnumber what it holds, its contents are the
// strays and move to the heap, and the stream gets the lane.
func (q *EventQueue) enqueue(ev *Event) {
	q.count++
	if !ev.poolable {
		heap.Push(&q.h, ev)
		return
	}
	if held := len(q.fifo) - q.fifoHead; held > 0 && ev.AtTTI < q.fifo[len(q.fifo)-1].AtTTI {
		if q.laneMisses++; q.laneMisses <= held {
			heap.Push(&q.h, ev)
			return
		}
		for i, stray := range q.fifo[q.fifoHead:] {
			q.fifo[q.fifoHead+i] = nil
			if stray.Run != nil || stray.runArg != nil { // not lazily cancelled
				heap.Push(&q.h, stray)
			}
		}
		q.fifo, q.fifoHead = q.fifo[:0], 0
	}
	q.laneMisses = 0
	ev.index = fifoMark
	if q.fifoHead > 0 && len(q.fifo) == cap(q.fifo) {
		// Compact consumed head space instead of growing: a steady
		// periodic stream never drains the lane, so without this the
		// backing array would grow with total events, not pending ones.
		live := copy(q.fifo, q.fifo[q.fifoHead:])
		for i := live; i < len(q.fifo); i++ {
			q.fifo[i] = nil
		}
		q.fifo = q.fifo[:live]
		q.fifoHead = 0
	}
	q.fifo = append(q.fifo, ev)
}

// Schedule enqueues fn to run at the given TTI and returns the event
// handle, which can be passed to Cancel.
func (q *EventQueue) Schedule(atTTI int64, fn func()) *Event {
	ev := q.newEvent(atTTI)
	ev.Run = fn
	q.enqueue(ev)
	return ev
}

// ScheduleArg enqueues fn(arg) at the given TTI without returning a
// handle. Handle-free events can never be cancelled, so the queue
// recycles the Event object after it fires — the allocation-free path
// for high-frequency periodic work such as the transport ACK clock.
func (q *EventQueue) ScheduleArg(atTTI int64, fn func(int64), arg int64) {
	ev := q.newEvent(atTTI)
	ev.runArg = fn
	ev.arg = arg
	ev.poolable = true
	q.enqueue(ev)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op. FIFO-lane events are cancelled
// lazily (cleared in place, skipped at pop time) to keep the lane O(1).
func (q *EventQueue) Cancel(ev *Event) {
	if ev == nil {
		return
	}
	switch {
	case ev.index >= 0:
		heap.Remove(&q.h, ev.index)
	case ev.index == fifoMark:
		// stays in the lane; fifoPeek discards it
	default:
		return
	}
	ev.index = indexDone
	ev.Run = nil
	ev.runArg = nil
	q.count--
}

// fifoPeek returns the first live FIFO event, discarding cancelled
// entries, or nil when the lane is empty (which also resets the lane's
// storage so it can be reused without growing).
func (q *EventQueue) fifoPeek() *Event {
	for q.fifoHead < len(q.fifo) {
		ev := q.fifo[q.fifoHead]
		if ev.Run == nil && ev.runArg == nil { // lazily cancelled
			q.fifo[q.fifoHead] = nil
			q.fifoHead++
			continue
		}
		return ev
	}
	q.fifo = q.fifo[:0]
	q.fifoHead = 0
	return nil
}

// peek returns the next event in (AtTTI, seq) order across both lanes
// without removing it.
func (q *EventQueue) peek() *Event {
	fe := q.fifoPeek()
	var he *Event
	if len(q.h) > 0 {
		he = q.h[0]
	}
	switch {
	case fe == nil:
		return he
	case he == nil:
		return fe
	case he.AtTTI < fe.AtTTI || (he.AtTTI == fe.AtTTI && he.seq < fe.seq):
		return he
	default:
		return fe
	}
}

// PeekTTI returns the TTI of the earliest pending event, or ok=false when
// the queue is empty.
func (q *EventQueue) PeekTTI() (tti int64, ok bool) {
	ev := q.peek()
	if ev == nil {
		return 0, false
	}
	return ev.AtTTI, true
}

// NextDeadline returns the earliest TTI at which a pending event will
// fire, or ok=false when no event is pending. It is the kernel's
// fast-forward horizon: a quiescent simulation may jump the clock to
// (but not past) this TTI without missing any scheduled work.
func (q *EventQueue) NextDeadline() (tti int64, ok bool) {
	return q.PeekTTI()
}

// RunDue pops and runs every event whose firing TTI is <= now, in order.
// It returns the number of events run. Events scheduled by a running
// event for a TTI <= now are run in the same call.
func (q *EventQueue) RunDue(now int64) int {
	n := 0
	for {
		ev := q.peek()
		if ev == nil || ev.AtTTI > now {
			return n
		}
		if ev.index == fifoMark {
			q.fifo[q.fifoHead] = nil
			q.fifoHead++
		} else {
			heap.Pop(&q.h)
		}
		q.count--
		ev.index = indexDone
		run, runArg, arg := ev.Run, ev.runArg, ev.arg
		ev.Run = nil
		ev.runArg = nil
		if ev.poolable {
			q.free = append(q.free, ev)
		}
		// The callback may schedule new events (possibly due at <= now)
		// or cancel pending ones; the loop re-peeks every iteration.
		if run != nil {
			run()
			n++
		} else if runArg != nil {
			runArg(arg)
			n++
		}
	}
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].AtTTI != h[j].AtTTI {
		return h[i].AtTTI < h[j].AtTTI
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
