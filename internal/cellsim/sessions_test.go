package cellsim_test

import (
	"math"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/cellsim"
	"github.com/flare-sim/flare/internal/flaresuite"
	"github.com/flare-sim/flare/internal/obs"
)

// liveRows is an obs sink that checks, at every BAI, that the solve
// counted exactly the sessions that are playing: the flows that have
// started (flow_start) and not departed (flow_depart). A solve's rows
// are its clamp events, one per row, recorded right after it.
type liveRows struct {
	t          *testing.T
	live       int // flows started and not departed
	atSolve    int // live when the current BAI solved
	rows       int // clamp events of the current BAI
	solving    bool
	solves     int
	infeasible int // solves whose objective is -Inf: the floors do not fit
}

func (s *liveRows) Write(e *obs.Event) error {
	switch e.Kind {
	case obs.KindFlowStart:
		s.live++
	case obs.KindFlowDepart:
		s.live--
	case obs.KindBAISolve:
		s.settle()
		s.solving, s.atSolve, s.rows = true, s.live, 0
		s.solves++
		if math.IsInf(e.Value, -1) {
			s.infeasible++
		}
	case obs.KindClamp:
		s.rows++
	}
	return nil
}

// settle checks the BAI whose clamps have all been counted.
func (s *liveRows) settle() {
	if s.solving && s.rows != s.atSolve {
		s.t.Errorf("solve %d counted %d rows with %d flows playing", s.solves, s.rows, s.atSolve)
	}
	s.solving = false
}

func (s *liveRows) Close() error { s.settle(); return nil }

// TestSolvesCountOnlyPlayingSessions: FLARE opens each session when its
// flow arrives and closes it when it leaves, so at every BAI the
// controller solves for exactly the sessions that are playing — not for
// flows declared for later, nor for flows that have gone. Checked on
// the ledger's churn cell and on the flash-crowd spec's FLARE point.
func TestSolvesCountOnlyPlayingSessions(t *testing.T) {
	flash, err := flaresuite.BuildConfig(flaresuite.Axes{
		Channel: flaresuite.ChannelStatic, Churn: flaresuite.ChurnFlash, Mix: flaresuite.MixFLARE,
	}, flaresuite.FullScale())
	if err != nil {
		t.Fatal(err)
	}
	flash.Seed = 1
	for _, c := range []struct {
		name string
		cfg  cellsim.Config
	}{
		{"churn", cellsim.LedgerChurnConfig(1, 200, 400*time.Second, 12)},
		{"flash-crowd", flash},
	} {
		t.Run(c.name, func(t *testing.T) {
			sink := &liveRows{t: t}
			cfg := c.cfg
			cfg.Obs = obs.New(obs.Options{RingSize: -1, Sinks: []obs.Sink{sink}})
			if _, err := cellsim.Run(cfg); err != nil {
				t.Fatal(err)
			}
			if err := cfg.Obs.Close(); err != nil {
				t.Fatal(err)
			}
			if sink.solves == 0 {
				t.Fatal("no BAI solved")
			}
			t.Logf("%d solves, %d of them infeasible", sink.solves, sink.infeasible)
		})
	}
}
