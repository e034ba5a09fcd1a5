package sim

// Handler is an event's callback: the queue calls Fire with the
// event's argument (0 for a ScheduleHandler timer). Engine state
// implements it through named pointer views of itself (type ackTimer
// Flow, say), so that handing one to the queue stores a pointer in an
// interface and allocates nothing, where a bound method value is a
// fresh heap object.
type Handler interface {
	Fire(arg int64)
}

// HandlerFunc adapts a plain function to a Handler, for closures in
// tests and cold paths (Schedule and ScheduleArg take closures through
// it). A func value is pointer-shaped, so the conversion itself
// allocates nothing.
type HandlerFunc func(arg int64)

// Fire calls f(arg).
func (f HandlerFunc) Fire(arg int64) { f(arg) }

// event is one scheduled callback, fired as h.Fire(arg).
type event struct {
	atTTI int64
	seq   int64 // tie-break so same-TTI events run in scheduling order
	h     Handler
	arg   int64
	next  *event // the FIFO lane's or the free list's link
}

// before is the queue's total order: (atTTI, seq).
func (e *event) before(o *event) bool {
	return e.atTTI < o.atTTI || (e.atTTI == o.atTTI && e.seq < o.seq)
}

// EventQueue is a priority queue of handlers ordered by firing TTI.
// Events scheduled for the same TTI fire in the order they were
// scheduled. An event cannot be cancelled: scheduling returns nothing,
// and once an event has fired the queue reuses its storage, so a
// simulation that keeps a bounded number of events pending stops
// allocating once it has carved that many. The zero value is ready to
// use. EventQueue is not safe for concurrent use; the simulation kernel
// is single-goroutine by design.
//
// Internally the queue is two lanes merged on (atTTI, seq): a FIFO list
// for ScheduleHandlerArg events that arrive in nondecreasing-TTI order
// (the overwhelmingly common case — the transport ACK clock schedules
// now+RTT/2 every TTI) and a binary heap for ScheduleHandler timers and
// out-of-order events. FIFO pushes and pops are O(1) with no sift
// traffic; the merge preserves exactly the total order a single heap
// produces, so the split is invisible to callers.
type EventQueue struct {
	heap []*event // binary min-heap on (atTTI, seq)

	// laneHead..laneTail is the FIFO lane, laneLen events long, linked
	// through event.next in nondecreasing atTTI. laneMisses counts the
	// ScheduleHandlerArg events in a row it turned away because its tail
	// fires later (see ScheduleHandlerArg).
	laneHead, laneTail *event
	laneLen            int
	laneMisses         int

	// free lists the fired events, linked through event.next. slab is
	// the arena new events are carved from when the free list is empty:
	// one bulk allocation per eventSlabSize events instead of one per
	// event.
	free *event
	slab []event

	count   int
	nextSeq int64
}

// eventSlabSize is the arena granularity: large enough to amortise the
// allocation, small enough that an idle queue doesn't pin much memory.
const eventSlabSize = 256

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return q.count }

// newEvent takes an event from the free list or carves one.
func (q *EventQueue) newEvent(atTTI int64) *event {
	ev := q.free
	if ev != nil {
		q.free = ev.next
	} else {
		if len(q.slab) == 0 {
			q.slab = make([]event, eventSlabSize)
		}
		ev = &q.slab[0]
		q.slab = q.slab[1:]
	}
	*ev = event{atTTI: atTTI, seq: q.nextSeq}
	q.nextSeq++
	q.count++
	return ev
}

// ScheduleHandler enqueues h to fire at the given TTI, as h.Fire(0).
// These events take the heap.
func (q *EventQueue) ScheduleHandler(atTTI int64, h Handler) {
	ev := q.newEvent(atTTI)
	ev.h = h
	q.push(ev)
}

// ScheduleHandlerArg enqueues h.Fire(arg) at the given TTI: one handler
// shared by many events, the argument telling them apart, so a
// high-frequency caller such as the transport ACK clock needs no state
// per event.
//
// These events take the FIFO lane when their TTI keeps it nondecreasing.
// ScheduleHandler timers never do, so a single far-future timer cannot
// wedge into the tail and force the steady periodic stream into the
// heap. A ScheduleHandlerArg event can still wedge there (a session's
// departure, scheduled at run start), so the lane counts the events it
// turns away in a row: once they outnumber what it holds, its contents
// are the strays and move to the heap, and the stream gets the lane.
func (q *EventQueue) ScheduleHandlerArg(atTTI int64, h Handler, arg int64) {
	ev := q.newEvent(atTTI)
	ev.h, ev.arg = h, arg
	if q.laneTail != nil && atTTI < q.laneTail.atTTI {
		if q.laneMisses++; q.laneMisses <= q.laneLen {
			q.push(ev)
			return
		}
		for stray := q.laneHead; stray != nil; {
			next := stray.next
			stray.next = nil
			q.push(stray)
			stray = next
		}
		q.laneHead, q.laneTail, q.laneLen = nil, nil, 0
	}
	q.laneMisses = 0
	if q.laneTail == nil {
		q.laneHead = ev
	} else {
		q.laneTail.next = ev
	}
	q.laneTail = ev
	q.laneLen++
}

// Schedule is ScheduleHandler for a closure: fn runs at the given TTI.
func (q *EventQueue) Schedule(atTTI int64, fn func()) {
	q.ScheduleHandler(atTTI, timerFunc(fn))
}

// ScheduleArg is ScheduleHandlerArg for a closure: fn(arg) runs at the
// given TTI.
func (q *EventQueue) ScheduleArg(atTTI int64, fn func(int64), arg int64) {
	q.ScheduleHandlerArg(atTTI, HandlerFunc(fn), arg)
}

// timerFunc adapts Schedule's func() the way HandlerFunc adapts
// func(int64).
type timerFunc func()

func (f timerFunc) Fire(int64) { f() }

// peek returns the next event in (atTTI, seq) order across both lanes
// without removing it, or nil when the queue is empty.
func (q *EventQueue) peek() *event {
	ev := q.laneHead
	if len(q.heap) > 0 && (ev == nil || q.heap[0].before(ev)) {
		return q.heap[0]
	}
	return ev
}

// NextDeadline returns the earliest TTI at which a pending event will
// fire, or ok=false when no event is pending. It is the kernel's
// fast-forward horizon: a quiescent simulation may jump the clock to
// (but not past) this TTI without missing any scheduled work.
func (q *EventQueue) NextDeadline() (tti int64, ok bool) {
	if ev := q.peek(); ev != nil {
		return ev.atTTI, true
	}
	return 0, false
}

// RunDue pops and fires every event whose firing TTI is <= now, in order.
// It returns the number of events run. Events scheduled by a running
// event for a TTI <= now are run in the same call.
func (q *EventQueue) RunDue(now int64) int {
	n := 0
	for {
		ev := q.peek()
		if ev == nil || ev.atTTI > now {
			return n
		}
		if ev == q.laneHead {
			if q.laneHead = ev.next; q.laneHead == nil {
				q.laneTail = nil
			}
			q.laneLen--
		} else {
			q.pop()
		}
		q.count--
		h, arg := ev.h, ev.arg
		*ev = event{next: q.free}
		q.free = ev
		// The handler may schedule new events (possibly due at <= now,
		// possibly in the storage just freed); the loop re-peeks.
		h.Fire(arg)
		n++
	}
}

// push adds ev to the heap.
func (q *EventQueue) push(ev *event) {
	h := append(q.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	q.heap = h
}

// pop removes the heap's root.
func (q *EventQueue) pop() {
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap[n] = nil
	h := q.heap[:n]
	q.heap = h
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
}
