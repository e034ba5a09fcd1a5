package benchmarks

import (
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/cellsim"
)

// TestEngineRunAllocs pins what a whole cellsim.Run of each canonical
// engine workload allocates: the busy cell (60 s, 60 BAIs, 60,000 TTIs)
// and the churn cell (400 s, 200 declared sessions). Building the cell
// is nearly all of it — a TTI, a BAI round, a completed segment, a
// pacing or loss timer and a session's arrival or departure allocate
// nothing in steady state (TestRunAllocsIndependentOfDuration), and
// wiring a session allocates nothing (the controller keeps it as a row
// of its flow table, sized once for the group) — so the bounds,
// engineTickAllocs and engineChurnAllocs, sit about 10 % above the
// figures measured in the build that runs them (allocbounds_*_test.go).
// One allocation more per BAI (60, 400), per session (20, 200) or per
// TTI crosses them. Both are deterministic counts, unlike the
// wall-clock rates the ledger records for the same cells.
func TestEngineRunAllocs(t *testing.T) {
	for _, w := range []struct {
		name  string
		cfg   func(seed uint64) cellsim.Config
		bound float64
	}{
		{"tick", EngineTickConfig, engineTickAllocs},
		{"churn", EngineChurnConfig, engineChurnAllocs},
	} {
		t.Run(w.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := w.cfg(seed)
				run := func() {
					if _, err := cellsim.Run(cfg); err != nil {
						t.Fatal(err)
					}
				}
				allocs := math.Inf(1)
				for try := 0; try < 3 && allocs > w.bound; try++ { // best of three, against the runtime's own strays
					allocs = min(allocs, testing.AllocsPerRun(1, run))
				}
				t.Logf("seed %d: %v allocations per run", seed, allocs)
				if allocs > w.bound {
					t.Errorf("seed %d: cellsim.Run allocates %v times, want <= %v", seed, allocs, w.bound)
				}
			}
		})
	}
}

// TestRunAllocsIndependentOfDuration: once a cell is built, what its run
// allocates does not grow with simulated time. Each canonical workload
// runs for its own duration T and for 4T (the churn cell's sessions all
// arrive within T, so its last 3T are long sessions, departures and idle
// decay), and Run alone — New is not counted — must allocate the same to
// within 2, which is what the solve-time history's doublings past T's
// BAIs cost: fired events are recycled, timers are views of the state
// they fire on, and the buffers the first rounds fill are sized at
// assembly. The naive row is the busy cell on the TTI-by-TTI loop
// (Sim.runNaive), which the other rows never reach.
func TestRunAllocsIndependentOfDuration(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	naiveTick := func(seed uint64) cellsim.Config {
		cfg := EngineTickConfig(seed)
		cfg.DisableFastForward = true
		return cfg
	}
	for _, w := range []struct {
		name string
		cfg  func(seed uint64) cellsim.Config
	}{
		{"tick", EngineTickConfig},
		{"churn", EngineChurnConfig},
		{"naive", naiveTick},
	} {
		t.Run(w.name, func(t *testing.T) {
			runAllocs := func(scale time.Duration) uint64 {
				cfg := w.cfg(1)
				cfg.Duration *= scale
				best := uint64(math.MaxUint64)
				for try := 0; try < 3; try++ { // best of three, against the runtime's own strays
					s, err := cellsim.New(cfg)
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
				return best
			}
			short, long := runAllocs(1), runAllocs(4)
			t.Logf("Run allocates %d times over T, %d over 4T", short, long)
			if long > short+2 || short > long+2 {
				t.Errorf("Run allocates %d times over T but %d over 4T, want within 2: something allocates as simulated time passes", short, long)
			}
		})
	}
}
