package lte_test

import (
	"reflect"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/cellsim"
	"github.com/flare-sim/flare/internal/lte"
)

// goldenConfig is the cell internal/cellsim's TestGoldenDeterminism
// pins each scheme on (its goldenConfig): three sessions of the scheme
// and one FESTIVE player (four FESTIVE players for FESTIVE itself), a
// data flow, the cyclic channel and 2 s control intervals, for 90 s.
func goldenConfig(scheme cellsim.Scheme) cellsim.Config {
	cfg := cellsim.DefaultConfig(scheme)
	cfg.Seed = 0x601d
	cfg.Duration = 90 * time.Second
	cfg.NumVideo = 4
	if scheme != cellsim.SchemeFESTIVE {
		cfg.NumVideo = 0
		cfg.VideoGroups = []cellsim.FlowGroup{{Scheme: scheme, Count: 3}, {Scheme: cellsim.SchemeFESTIVE, Count: 1}}
	}
	cfg.NumData = 1
	cfg.SegmentDuration = 2 * time.Second
	cfg.Flare.BAI = 2 * time.Second
	cfg.Flare.Delta = 1
	cfg.Channel = cellsim.ChannelSpec{
		Kind: cellsim.ChannelCyclic, CyclicMin: 4, CyclicMax: 12,
		CyclicPeriod: 30 * time.Second,
	}
	return cfg
}

// TestTwinGrantsMatchOnGoldenCells runs each of the six scheme goldens'
// cells, on both engine loops, with the reference twin in front of its
// eNodeB: on every TTI the cell schedules, the scheduler decides once
// with the lazily aged accounting and once with the accounting stepped
// every TTI, and the grants — bearer and RBs — must be the same.
func TestTwinGrantsMatchOnGoldenCells(t *testing.T) {
	for _, scheme := range []cellsim.Scheme{
		cellsim.SchemeFLARE, cellsim.SchemeFESTIVE, cellsim.SchemeGOOGLE,
		cellsim.SchemeAVIS, cellsim.SchemeBBA, cellsim.SchemeMPC,
	} {
		for _, naive := range []bool{false, true} {
			cfg := goldenConfig(scheme)
			cfg.DisableFastForward = naive
			s, err := cellsim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The cell's eNodeB is not exported; the twin reaches it
			// through the Sim's field.
			enb := (*lte.ENodeB)(reflect.ValueOf(s).Elem().FieldByName("enb").UnsafePointer())
			report := lte.AttachTwin(enb)
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			scheduled := report(t)
			t.Logf("%s naive=%v: %d scheduled TTIs, grants identical on all", scheme, naive, scheduled)
			if scheduled < 10_000 {
				t.Errorf("%s naive=%v: only %d scheduled TTIs; the cell is not busy", scheme, naive, scheduled)
			}
		}
	}
}
