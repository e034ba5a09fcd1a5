package oneapi

import (
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/has"
)

// TestServerSetWallClockPropagates: the server-level injection must
// reach controllers created before AND after the call, so LastSolve
// reflects the fake clock for every cell.
func TestServerSetWallClockPropagates(t *testing.T) {
	s := serverForTest()

	// Cell 0's controller exists before the injection...
	if _, err := s.Open(0, SessionRequest{FlowID: 1, LadderBps: has.SimLadder()}); err != nil {
		t.Fatal(err)
	}

	fake := time.Unix(1_700_000_000, 0)
	s.SetWallClock(func() time.Time {
		fake = fake.Add(2 * time.Millisecond)
		return fake
	})

	// ...cell 1's only after.
	if _, err := s.Open(1, SessionRequest{FlowID: 2, LadderBps: has.SimLadder()}); err != nil {
		t.Fatal(err)
	}

	pcef := perFlow(func(int, float64) error { return nil })
	for _, cell := range []int{0, 1} {
		if _, err := s.RunBAIReport(cell, StatsReport{}, pcef); err != nil {
			t.Fatalf("cell %d: %v", cell, err)
		}
	}
	for _, cell := range []int{0, 1} {
		// Each RunBAI reads the fake twice, so exactly one 2ms step.
		if n, d, err := s.LastSolve(cell); err != nil || n != 1 || d != 2*time.Millisecond {
			t.Fatalf("cell %d: LastSolve = %d, %v, %v through fake clock, want 1 solve of 2ms", cell, n, d, err)
		}
	}
}
