package lte

import (
	"slices"
	"testing"
)

// recordingScheduler hands every TTI's active set to a real scheduler
// and counts how often it saw each bearer.
type recordingScheduler struct {
	Scheduler
	seen map[*Bearer]int
}

func (r *recordingScheduler) Allocate(tti int64, flows []*FlowState, rbgSizes []int) {
	for _, f := range flows {
		r.seen[f.Bearer]++
	}
	r.Scheduler.Allocate(tti, flows, rbgSizes)
}

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestRetiredBearerIsNeverScheduled is the retirement contract: once
// retired, a bearer is never enqueued into (Enqueue panics), never
// re-admitted by a rate write, never handed to a scheduler and never
// ticked, so its averages and credits stay exactly where they were.
// The other bearers keep the cell busy, with idle spans fast-forwarded,
// and the bearer is retired from each state it can be in: live (served
// a moment ago), settled, and stirred (settled, then written to).
func TestRetiredBearerIsNeverScheduled(t *testing.T) {
	for _, from := range []string{"live", "settled", "stirred"} {
		t.Run(from, func(t *testing.T) {
			const n, target = 6, 2
			rec := &recordingScheduler{Scheduler: TwoPhaseGBRScheduler{}, seen: map[*Bearer]int{}}
			enb := NewENodeB(NewUniformStaticChannel(n, 12), rec)
			bs := make([]*Bearer, n)
			for i := range bs {
				bs[i] = &Bearer{ID: i, UE: i, Class: ClassVideo, QueueLimit: 64 << 10}
				if _, err := enb.AddBearer(bs[i]); err != nil {
					t.Fatal(err)
				}
				bs[i].SetGBR(float64(i+1) * 400e3)
			}
			b := bs[target]
			tti := int64(0)
			run := func(ttis int, load func(i int) bool) {
				for end := tti + int64(ttis); tti < end; tti++ {
					for i, o := range bs {
						if o != b && load(i) && o.Backlog() < 8<<10 {
							o.Enqueue(16 << 10)
						}
					}
					enb.RunTTI(tti)
				}
			}
			// Serve b with the rest, then let it drain.
			b.Enqueue(200 << 10)
			run(2000, func(int) bool { return true })
			if b.Backlog() != 0 || b.avgTput == 0 {
				t.Fatalf("bearer %d: backlog %d, average %v after its burst", target, b.Backlog(), b.avgTput)
			}
			switch from {
			case "settled", "stirred":
				run(120_000, func(int) bool { return true })
				if !b.settled {
					t.Fatalf("bearer %d did not settle", target)
				}
				if from == "stirred" {
					b.SetMBR(5e6)
					if b.settled || !slices.Contains(enb.stirred, b) {
						t.Fatalf("bearer %d was not stirred", target)
					}
				}
			}
			seen := rec.seen[b]
			enb.Retire(b)
			frozen := bitsOf(b)
			if slices.Contains(enb.live, b) || slices.Contains(enb.stirred, b) || b.settled {
				t.Fatalf("retired bearer %d is still live, stirred or settled", target)
			}

			mustPanic(t, "Enqueue on a retired bearer", func() { b.Enqueue(1500) })
			// Rate writes, through the eNodeB and the bearer, record the
			// rate and re-admit nothing.
			for k := 0; k < 20; k++ {
				if err := enb.SetGBR(b.ID, float64(k)*250e3); err != nil {
					t.Fatal(err)
				}
				if err := enb.SetMBR(b.ID, float64(k)*500e3); err != nil {
					t.Fatal(err)
				}
				run(100, func(i int) bool { return i%2 == 0 })
			}
			b.SetGBR(3e6)
			if b.GBRBits != 3e6 {
				t.Errorf("GBR on the retired bearer reads %v, want the rate written", b.GBRBits)
			}
			// Let the rest drain, then skip an idle span.
			run(3000, func(int) bool { return false })
			if !enb.Idle() {
				t.Fatal("cell not idle with every other bearer drained")
			}
			enb.FastForwardIdle(tti-1, tti+50_000)
			tti += 50_000
			run(500, func(int) bool { return true })

			if got := rec.seen[b]; got != seen {
				t.Errorf("the scheduler saw retired bearer %d %d times after retirement", target, got-seen)
			}
			if got := bitsOf(b); got != frozen {
				t.Errorf("retired bearer %d's accounting moved:\n got %+v\nwant %+v", target, got, frozen)
			}
			if slices.Contains(enb.live, b) || slices.Contains(enb.stirred, b) || b.settled {
				t.Errorf("retired bearer %d was re-admitted", target)
			}
			if enb.BearerByID(b.ID) != b {
				t.Errorf("retired bearer %d is no longer found by ID", target)
			}
			for i, o := range bs {
				if o != b && rec.seen[o] == 0 {
					t.Errorf("bearer %d was never scheduled: the cell was not busy", i)
				}
			}
		})
	}
}

// TestRetireRefusesBacklog: a bearer with queued bytes still has
// something to send, so retiring it is a caller bug.
func TestRetireRefusesBacklog(t *testing.T) {
	enb := NewENodeB(NewUniformStaticChannel(1, 12), PFScheduler{})
	b := &Bearer{ID: 0, UE: 0, Class: ClassData}
	if _, err := enb.AddBearer(b); err != nil {
		t.Fatal(err)
	}
	b.Enqueue(1000)
	mustPanic(t, "Retire with a backlog", func() { enb.Retire(b) })
}
