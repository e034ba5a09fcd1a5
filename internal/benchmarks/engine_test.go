package benchmarks

import (
	"math"
	"testing"

	"github.com/flare-sim/flare/internal/cellsim"
)

// TestEngineRunAllocs pins what a whole cellsim.Run of each canonical
// engine workload allocates: the busy cell (60 s, 60 BAIs, 60,000 TTIs)
// and the churn cell (400 s, 200 declared sessions). Building the cell
// is nearly all of it — a TTI, a BAI round, a completed segment and a
// session's arrival or departure allocate nothing in steady state — so
// the bounds sit about 10 % above the 340–341 and 1,818–1,829 measured
// over seeds 1–3, and one allocation more per BAI (60, 400) or per TTI
// crosses them. Both are deterministic counts, unlike the wall-clock
// rates the ledger records for the same cells.
func TestEngineRunAllocs(t *testing.T) {
	for _, w := range []struct {
		name  string
		cfg   func(seed uint64) cellsim.Config
		bound float64
	}{
		{"tick", EngineTickConfig, 390},
		{"churn", EngineChurnConfig, 2020},
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
