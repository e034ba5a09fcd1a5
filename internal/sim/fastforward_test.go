package sim

import (
	"math/rand"
	"testing"
)

// Unit tests for the kernel fast-forward primitives: the NextDeadline
// horizon, the AdvanceTo clock jump, and the two-lane event queue's
// ScheduleArg path (ordering, recycling, lane routing).

func TestNextDeadlineEmptyQueue(t *testing.T) {
	var q EventQueue
	if _, ok := q.NextDeadline(); ok {
		t.Fatal("empty queue reported a deadline")
	}
}

func TestNextDeadlineTracksEarliestAcrossLanes(t *testing.T) {
	var q EventQueue
	// Heap lane: a far timer, then a nearer one.
	q.Schedule(50, func() {})
	q.Schedule(20, func() {})
	// FIFO lane: a ScheduleArg event in between.
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

// TestScheduleArgPoolRecycles proves fired events are recycled:
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
	if q.free == nil {
		t.Fatal("free list empty; fired events are not being recycled")
	}
	// The storage must stay O(pending), not O(total fired): each event
	// schedules its successor after it was freed, so one event carved
	// from the first slab serves the whole chain.
	if carved := eventSlabSize - len(q.slab); carved != 1 {
		t.Fatalf("%d events carved for a chain that never has more than one pending", carved)
	}
}

// sink is a Handler on state the test owns, the shape the engine's
// handlers have (a pointer view of a flow or a player). It records
// base+arg: a sink shared by many events records each one's argument,
// and a sink of its own with base = id records the id of a
// ScheduleHandler timer, which fires with 0.
type sink struct {
	got  *[]int
	base int
}

func (s *sink) Fire(arg int64) { *s.got = append(*s.got, s.base+int(arg)) }

// counter is the steady-state test's Handler.
type counter struct{ fired, sum int64 }

func (c *counter) Fire(arg int64) { c.fired++; c.sum += arg }

// TestEventQueueSteadyStateAllocatesNothing: once the queue has carved
// as many events as are ever pending at once and its heap has grown to
// hold them, ScheduleHandler timers interleaved with a
// ScheduleHandlerArg stream allocate nothing, whichever lane they take.
// Both are pointers to state the test owns, as the engine's handlers
// are.
func TestEventQueueSteadyStateAllocatesNothing(t *testing.T) {
	var q EventQueue
	timer, ack := &counter{}, &counter{}
	now := int64(0)
	step := func() {
		q.ScheduleHandlerArg(now+20, ack, now)
		if now%3 == 0 {
			q.ScheduleHandler(now+40+now%17, timer)
		}
		q.RunDue(now)
		now++
	}
	for i := 0; i < 1_000; i++ { // warm-up
		step()
	}
	const steps = 30_000 // 10⁴ timers
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < steps; i++ {
			step()
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations over %d timers and %d ScheduleHandlerArg events, want 0", allocs, steps/3, steps)
	}
	if timer.fired == 0 || timer.sum != 0 || ack.fired == 0 {
		t.Errorf("timers fired %d times with argument sum %d (want 0), ACKs %d times", timer.fired, timer.sum, ack.fired)
	}
}

// TestFarFutureArgEventsLeaveTheLane: ScheduleArg one-shots scheduled far
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
		if now == 2*strays && len(q.heap) != 2*strays {
			t.Fatalf("after %d stream events the heap holds %d events, want the %d strays and nothing else", now, len(q.heap), 2*strays)
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
// against a straightforward reference: random interleavings of heap
// timers and lane events must fire in identical order, whether an event
// is a pointer Handler (ScheduleHandler, ScheduleHandlerArg), a closure
// through the func adapters (Schedule, ScheduleArg) or a HandlerFunc —
// and a timer must fire with argument 0.
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
		shared := &sink{got: &got}
		seq := 0
		id := 0
		now := int64(0)
		for step := 0; step < 200; step++ {
			at := now + int64(rng.Intn(20))
			v := id
			switch rng.Intn(6) { // lane events two times in three, mostly nondecreasing TTIs
			case 0:
				q.ScheduleHandlerArg(at, shared, int64(v))
			case 1:
				q.ScheduleHandlerArg(at, HandlerFunc(func(arg int64) { got = append(got, int(arg)) }), int64(v))
			case 2, 3:
				q.ScheduleArg(at, func(arg int64) { got = append(got, int(arg)) }, int64(v))
			case 4:
				q.ScheduleHandler(at, &sink{got: &got, base: v})
			default:
				q.Schedule(at, func() { got = append(got, v) })
			}
			want = append(want, ref{at, seq, v})
			seq++
			id++
			if rng.Intn(3) == 0 {
				now += int64(rng.Intn(5))
				q.RunDue(now)
			}
		}
		q.RunDue(1 << 40)
		// Reference order: stable by (at, seq).
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
