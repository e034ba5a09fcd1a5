package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("sequence diverged at %d: %d != %d", i, got, want)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	s := r.Split()
	// The split stream must not replay the parent stream.
	parent := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		parent[r.Uint64()] = true
	}
	for i := 0; i < 100; i++ {
		if parent[s.Uint64()] {
			t.Fatal("split stream collided with parent stream")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(13)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm(5, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("Norm mean = %v, want ~5", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("Norm stdev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(17)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Exp(3)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-3) > 0.1 {
		t.Errorf("Exp mean = %v, want ~3", mean)
	}
}

func TestRNGUniformRange(t *testing.T) {
	check := func(seed uint64) bool {
		r := NewRNG(seed)
		v := r.Uniform(2, 9)
		return v >= 2 && v < 9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.TTI() != 0 || c.Now() != 0 {
		t.Fatal("zero clock not at time zero")
	}
	c.Advance()
	c.Advance()
	if got := c.Now(); got != 2*time.Millisecond {
		t.Fatalf("Now() = %v, want 2ms", got)
	}
	if got := c.Seconds(); got != 0.002 {
		t.Fatalf("Seconds() = %v, want 0.002", got)
	}
}

func TestDurationToTTIs(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int64
	}{
		{0, 0},
		{time.Millisecond, 1},
		{10 * time.Second, 10000},
		{1500 * time.Microsecond, 1},
		{999 * time.Microsecond, 0},
	}
	for _, tc := range cases {
		if got := DurationToTTIs(tc.d); got != tc.want {
			t.Errorf("DurationToTTIs(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestEventQueueOrdering(t *testing.T) {
	var q EventQueue
	var fired []int
	q.Schedule(30, func() { fired = append(fired, 3) })
	q.Schedule(10, func() { fired = append(fired, 1) })
	q.Schedule(20, func() { fired = append(fired, 2) })
	if n := q.RunDue(25); n != 2 {
		t.Fatalf("RunDue(25) ran %d events, want 2", n)
	}
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("fired = %v, want [1 2]", fired)
	}
	q.RunDue(100)
	if len(fired) != 3 || fired[2] != 3 {
		t.Fatalf("fired = %v, want [1 2 3]", fired)
	}
}

func TestEventQueueSameTTIFIFO(t *testing.T) {
	var q EventQueue
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(5, func() { fired = append(fired, i) })
	}
	q.RunDue(5)
	for i, v := range fired {
		if v != i {
			t.Fatalf("same-TTI events out of order: %v", fired)
		}
	}
}

func TestEventQueueReentrantSchedule(t *testing.T) {
	var q EventQueue
	var fired []string
	q.Schedule(5, func() {
		fired = append(fired, "outer")
		q.Schedule(5, func() { fired = append(fired, "inner-now") })
		q.Schedule(6, func() { fired = append(fired, "inner-later") })
	})
	q.RunDue(5)
	if len(fired) != 2 || fired[1] != "inner-now" {
		t.Fatalf("fired = %v, want [outer inner-now]", fired)
	}
	q.RunDue(6)
	if len(fired) != 3 || fired[2] != "inner-later" {
		t.Fatalf("fired = %v", fired)
	}
}

func TestEventQueuePeek(t *testing.T) {
	var q EventQueue
	if _, ok := q.NextDeadline(); ok {
		t.Fatal("NextDeadline on empty queue returned ok")
	}
	q.Schedule(42, func() {})
	if tti, ok := q.NextDeadline(); !ok || tti != 42 {
		t.Fatalf("NextDeadline = %d,%v, want 42,true", tti, ok)
	}
}

func TestEventQueueManyEventsStaySorted(t *testing.T) {
	var q EventQueue
	r := NewRNG(99)
	const n = 2000
	for i := 0; i < n; i++ {
		q.Schedule(int64(r.Intn(1000)), func() {})
	}
	last := int64(-1)
	for q.Len() > 0 {
		tti, _ := q.NextDeadline()
		if tti < last {
			t.Fatalf("heap order violated: %d after %d", tti, last)
		}
		last = tti
		q.RunDue(tti)
	}
}
