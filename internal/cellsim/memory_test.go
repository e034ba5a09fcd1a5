package cellsim

import (
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/has"
)

// TestInProcessRoundAllocs pins the in-process BAI round — the FLARE
// driver's OnBAI: stats report, Server.RunBAIInto, Controller.RunBAI,
// ExactSolver.SolveInto, the batched GBR install and every plugin's
// poll — at no allocation once the cell has warmed up, at the two
// shapes the perf ledger replays (8 sessions on the 6-rung ladder, 24 on
// the 12-rung one), under both objectives the solver's utility table can
// call (Eq. 2, the default, and upf). Everything a round writes lives in
// buffers of the engine, the driver, the server's cell or its
// controller; all that can still allocate is the controller's solve-time
// history, doubling a handful of times on its way to its 4,096-entry
// bound.
func TestInProcessRoundAllocs(t *testing.T) {
	for _, shape := range []struct {
		name      string
		sessions  int
		ladder    has.Ladder
		objective string
	}{
		{"8x6", 8, has.SimLadder(), ""},
		{"24x12", 24, has.FineLadder(), ""},
		{"8x6-upf", 8, has.SimLadder(), "upf"},
		{"24x12-upf", 24, has.FineLadder(), "upf"},
	} {
		t.Run(shape.name, func(t *testing.T) {
			cfg := DefaultConfig(SchemeFLARE)
			cfg.NumVideo = shape.sessions
			cfg.Ladder = shape.ladder
			cfg.Flare.Objective = shape.objective
			cfg.Duration = 20 * time.Second
			cfg.SegmentDuration = 2 * time.Second
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil { // 20 BAIs of warm-up, sessions left open
				t.Fatal(err)
			}
			ctrl := s.groups[0].ctrl
			now := cfg.Duration
			const rounds = 64
			run := func() {
				for i := 0; i < rounds; i++ {
					now += time.Second
					if err := ctrl.OnBAI(now); err != nil {
						t.Fatal(err)
					}
				}
			}
			allocs := math.Inf(1)
			for try := 0; try < 3 && allocs > 0; try++ { // best of three, against the runtime's own strays
				allocs = min(allocs, testing.AllocsPerRun(1, run))
			}
			t.Logf("%v allocations over %d rounds", allocs, rounds)
			if allocs > 2 {
				t.Errorf("%v allocations over %d in-process BAI rounds, want none but the solve-time history's doubling (<= 2)", allocs, rounds)
			}
		})
	}
}

// heapAfterGC returns the live heap once everything unreachable is gone.
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestRunHeapIndependentOfDuration is the runtime form of "heap flat
// over the BAIs": what a finished cell retains depends on its sessions,
// not on how long they streamed. One churn schedule — forty declared
// sessions, about a dozen live — runs for T and, the survivors streaming
// on, for 8T: eight times the segments, BAIs and events. With the Sim
// still referenced, the live heap of the two may differ by the bounded
// things that do depend on the realisation — one 256-event slab of the
// event queue (16 KB, if the longer run's peak of pending events crosses
// a slab boundary) and the controller's solve-time history (8 bytes a
// BAI up to its 4,096-entry bound: 3.5 KB here) — and no more. The
// per-segment log players used to keep would add some 160 KB.
func TestRunHeapIndependentOfDuration(t *testing.T) {
	const (
		T      = 60 * time.Second
		budget = 32 << 10
	)
	retained := func(d time.Duration) int64 {
		before := heapAfterGC()
		cfg := churnConfig(7, 40, T, 12)
		cfg.Duration = d
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		after := heapAfterGC()
		runtime.KeepAlive(s)
		return after - before
	}
	retained(T) // grow the process-wide solver scratch once, outside the measurement
	short, long := retained(T), retained(8*T)
	t.Logf("retained after %v: %d B, after %v: %d B (difference %d B)", T, short, 8*T, long, long-short)
	if diff := long - short; diff > budget || diff < -budget {
		t.Errorf("a run 8x as long retains %d B more (%d vs %d), want within %d B: something grows with simulated time",
			diff, long, short, budget)
	}
}

// TestAdmissionRunAllocs pins what an admission-mode churn run
// allocates (Run alone, New not counted): the saturation shape — twice
// the cell's floor-carrying load on the testbed ladder at iTbs 2, with
// admission control and the downgrade ladder — for 90 s. The driver
// must skip declared flows that have not arrived, and the server must
// refuse a waiting flow's preferences and polls with bare sentinels:
// when those refusals built errors, the run took 4,442 objects. What
// is left is mostly the opens admission rejects.
func TestAdmissionRunAllocs(t *testing.T) {
	cfg := DefaultConfig(SchemeFLARE)
	cfg.Duration = 90 * time.Second
	cfg.Ladder = has.TestbedLadder()
	cfg.SegmentDuration = 2 * time.Second
	cfg.Channel = ChannelSpec{Kind: ChannelStatic, StaticITbs: 2}
	cfg.Flare.AdmissionControl = true
	cfg.Flare.DowngradeLadder = true
	cfg.Churn = cfg.OfferedChurn(2, 30*time.Second)
	best := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ { // best of three: the first run also warms process-wide scratch
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	t.Logf("Run allocates %d times", best)
	if best > admissionRunAllocs {
		t.Errorf("an admission-mode churn run allocates %d times, want <= %d", best, admissionRunAllocs)
	}
}
