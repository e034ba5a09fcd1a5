package sim

import (
	"math/rand"
	"testing"
)

// Unit tests for the kernel fast-forward primitives: the NextDeadline
// horizon, the AdvanceTo clock jump, and the two-lane event queue's
// ScheduleArg path (ordering, pooling, cancellation interplay).

func TestNextDeadlineEmptyQueue(t *testing.T) {
	var q EventQueue
	if _, ok := q.NextDeadline(); ok {
		t.Fatal("empty queue reported a deadline")
	}
}

func TestNextDeadlineTracksEarliestAcrossLanes(t *testing.T) {
	var q EventQueue
	// Heap lane: a handle-bearing far event, then a nearer one.
	q.Schedule(50, func() {})
	q.Schedule(20, func() {})
	// FIFO lane: a poolable event in between.
	q.ScheduleArg(30, func(int64) {}, 0)
	if tti, ok := q.NextDeadline(); !ok || tti != 20 {
		t.Fatalf("NextDeadline = %d,%v; want 20,true", tti, ok)
	}
	q.RunDue(20)
	if tti, ok := q.NextDeadline(); !ok || tti != 30 {
		t.Fatalf("after draining 20: NextDeadline = %d,%v; want 30,true", tti, ok)
	}
	q.RunDue(49)
	if tti, ok := q.NextDeadline(); !ok || tti != 50 {
		t.Fatalf("after draining 30: NextDeadline = %d,%v; want 50,true", tti, ok)
	}
}

func TestNextDeadlineSeesCancellation(t *testing.T) {
	var q EventQueue
	ev := q.Schedule(10, func() {})
	q.Schedule(40, func() {})
	q.Cancel(ev)
	if tti, ok := q.NextDeadline(); !ok || tti != 40 {
		t.Fatalf("NextDeadline after cancel = %d,%v; want 40,true", tti, ok)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	var c Clock
	c.AdvanceTo(17)
	if c.TTI() != 17 {
		t.Fatalf("TTI = %d, want 17", c.TTI())
	}
	c.AdvanceTo(17) // same TTI is allowed (no-op)
	if c.TTI() != 17 {
		t.Fatalf("TTI = %d, want 17", c.TTI())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo backwards did not panic")
		}
	}()
	c.AdvanceTo(16)
}

func TestScheduleArgDeliversPayload(t *testing.T) {
	var q EventQueue
	var got []int64
	fn := func(v int64) { got = append(got, v) }
	q.ScheduleArg(5, fn, 100)
	q.ScheduleArg(5, fn, 200)
	q.ScheduleArg(3, fn, 300)
	if n := q.RunDue(10); n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	want := []int64{300, 100, 200}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("payload order %v, want %v", got, want)
		}
	}
}

// TestScheduleArgInterleavesWithSchedule pins the merge contract: the
// two lanes must fire in exactly (AtTTI, scheduling order), as a single
// heap would.
func TestScheduleArgInterleavesWithSchedule(t *testing.T) {
	var q EventQueue
	var got []int
	mark := func(id int) func() { return func() { got = append(got, id) } }
	markArg := func(v int64) { got = append(got, int(v)) }

	q.Schedule(10, mark(0))       // heap
	q.ScheduleArg(10, markArg, 1) // fifo, same TTI: after 0
	q.Schedule(5, mark(2))        // heap, earlier TTI
	q.ScheduleArg(10, markArg, 3) // fifo, same TTI as 0/1: last
	q.ScheduleArg(7, markArg, 4)  // heap fallback (violates lane monotonicity)
	q.RunDue(10)
	want := []int{2, 4, 0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestScheduleArgPoolRecycles proves handle-free events are recycled:
// steady-state periodic scheduling must not grow the queue's storage.
func TestScheduleArgPoolRecycles(t *testing.T) {
	var q EventQueue
	fired := 0
	var fn func(int64)
	fn = func(arg int64) {
		fired++
		if arg < 10_000 {
			q.ScheduleArg(arg+1, fn, arg+1)
		}
	}
	q.ScheduleArg(1, fn, 1)
	for tti := int64(1); tti <= 10_000; tti++ {
		q.RunDue(tti)
	}
	if fired != 10_000 {
		t.Fatalf("fired %d, want 10000", fired)
	}
	if got := len(q.free); got < 1 {
		t.Fatal("free list empty; pooled events are not being recycled")
	}
	// The backing storage must stay O(pending), not O(total fired).
	if c := cap(q.fifo); c > 64 {
		t.Fatalf("fifo lane grew to cap %d under steady-state load", c)
	}
}

// TestFarFutureArgEventsLeaveTheLane: handle-free one-shots scheduled far
// ahead (a churn run's arrivals and departures, all queued at run
// start) must not hold the FIFO lane against the periodic stream that
// starts afterwards. The stream may pay the heap for as many events as
// the lane held; after that the strays are on the heap and the stream in
// the lane — and every event still fires in (AtTTI, scheduling order).
func TestFarFutureArgEventsLeaveTheLane(t *testing.T) {
	var q EventQueue
	var fired []int64
	record := func(arg int64) { fired = append(fired, arg) }
	const strays = 40
	for i := int64(0); i < strays; i++ {
		q.ScheduleArg(1_000+50*i, record, -1-i)    // an arrival
		q.ScheduleArg(30_000+70*i, record, -100-i) // its departure
	}
	const streamTTIs = 40_000
	for now := int64(0); now < streamTTIs; now++ {
		q.ScheduleArg(now+10, record, now)
		q.RunDue(now)
		if now == 2*strays && len(q.h) != 2*strays {
			t.Fatalf("after %d stream events the heap holds %d events, want the %d strays and nothing else", now, len(q.h), 2*strays)
		}
	}
	q.RunDue(1 << 40)
	if len(fired) != 2*strays+streamTTIs {
		t.Fatalf("fired %d events, want %d", len(fired), 2*strays+streamTTIs)
	}
	at := func(arg int64) int64 {
		switch {
		case arg >= 0:
			return arg + 10
		case arg > -100:
			return 1_000 + 50*(-1-arg)
		default:
			return 30_000 + 70*(-100-arg)
		}
	}
	for i := 1; i < len(fired); i++ {
		// Strays were scheduled first, so at equal TTIs they fire first.
		a, b := fired[i-1], fired[i]
		if at(a) > at(b) || (at(a) == at(b) && a >= 0 && b < 0) {
			t.Fatalf("event %d fired before event %d", a, b)
		}
	}
}

// TestEventQueueRandomizedMergeOrder cross-checks the two-lane queue
// against a straightforward reference: random interleavings of
// Schedule/ScheduleArg/Cancel must fire in identical order.
func TestEventQueueRandomizedMergeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var q EventQueue
		type ref struct {
			at  int64
			seq int
			id  int
		}
		var want []ref
		var got []int
		seq := 0
		id := 0
		var handles []*Event
		var handleIDs []int
		now := int64(0)
		for step := 0; step < 200; step++ {
			switch rng.Intn(4) {
			case 0, 1: // ScheduleArg, mostly nondecreasing TTIs
				at := now + int64(rng.Intn(20))
				v := id
				q.ScheduleArg(at, func(arg int64) { got = append(got, int(arg)) }, int64(v))
				want = append(want, ref{at, seq, v})
				seq++
				id++
			case 2: // Schedule with handle
				at := now + int64(rng.Intn(20))
				v := id
				ev := q.Schedule(at, func() { got = append(got, v) })
				handles = append(handles, ev)
				handleIDs = append(handleIDs, v)
				want = append(want, ref{at, seq, v})
				seq++
				id++
			case 3: // cancel a random outstanding handle
				if len(handles) > 0 {
					k := rng.Intn(len(handles))
					if !handles[k].Cancelled() { // not already fired
						q.Cancel(handles[k])
						// drop from the reference list
						cid := handleIDs[k]
						for i, w := range want {
							if w.id == cid {
								want = append(want[:i], want[i+1:]...)
								break
							}
						}
					}
					handles = append(handles[:k], handles[k+1:]...)
					handleIDs = append(handleIDs[:k], handleIDs[k+1:]...)
				}
			}
			if rng.Intn(3) == 0 {
				now += int64(rng.Intn(5))
				q.RunDue(now)
			}
		}
		q.RunDue(1 << 40)
		// Reference order: stable by (at, seq); drop already-fired
		// duplicates by comparing the full sequences.
		ordered := make([]ref, len(want))
		copy(ordered, want)
		for i := 1; i < len(ordered); i++ {
			for j := i; j > 0 && (ordered[j].at < ordered[j-1].at ||
				(ordered[j].at == ordered[j-1].at && ordered[j].seq < ordered[j-1].seq)); j-- {
				ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
			}
		}
		if len(got) != len(ordered) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(got), len(ordered))
		}
		for i := range ordered {
			if got[i] != ordered[i].id {
				t.Fatalf("trial %d: firing order diverged at %d: got %d want %d",
					trial, i, got[i], ordered[i].id)
			}
		}
	}
}
