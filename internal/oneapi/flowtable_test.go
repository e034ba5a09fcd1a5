package oneapi

import (
	"testing"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
)

// TestWarmCellSessionChurnAllocatesNothing pins the flow table's steady
// state. On a warm 128-session cell, closing a session and reopening it,
// handing another to a neighbour cell and back, and the next BAI round
// (with its installs) together allocate nothing: sessions are rows the
// controller inserts and removes in place, the install record a poll
// answers rides on the row, and a handover shares the ladder rather than
// copying it. A per-session record, map entry or ladder copy creeping
// back shows up here as a whole number per cycle.
func TestWarmCellSessionChurnAllocatesNothing(t *testing.T) {
	const sessions = 128
	s := NewServer(core.DefaultConfig(), nil)
	ladder := has.FineLadder()
	report := StatsReport{Flows: make(map[int]core.FlowStats, sessions)}
	for f := 0; f < sessions; f++ {
		if _, err := s.Open(0, SessionRequest{FlowID: f, LadderBps: ladder}); err != nil {
			t.Fatal(err)
		}
		report.Flows[f] = core.FlowStats{Bytes: int64(40_000 + 500*f), RBs: int64(5_000 + 20*f)}
	}
	if _, err := s.Open(1, SessionRequest{FlowID: 1000, LadderBps: ladder}); err != nil {
		t.Fatal(err)
	}
	pcef := PCEF(func([]GBRInstall) []error { return nil })
	var resp StatsResponse
	cycle := func() {
		s.CloseSession(0, 64)
		if created, err := s.Open(0, SessionRequest{FlowID: 64, LadderBps: ladder}); err != nil || !created {
			t.Fatalf("reopen: created=%v err=%v", created, err)
		}
		if err := s.Handover(0, 1, 17); err != nil {
			t.Fatal(err)
		}
		if err := s.Handover(1, 0, 17); err != nil {
			t.Fatal(err)
		}
		if err := s.RunBAIInto(0, report, pcef, &resp); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: the neighbour's table grows to two rows and the round's
	// buffers to their size. The solve-time history next doubles at the
	// 64th round, well past the 24 run here.
	for i := 0; i < 3; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(20, cycle)
	t.Logf("close+reopen, handover out and back, and a BAI round on a warm %d-session cell: %.1f allocations", sessions, allocs)
	if allocs != 0 {
		t.Errorf("a warm cell's session churn and BAI round made %.1f allocations, want 0", allocs)
	}
	if len(resp.Assignments) != sessions {
		t.Fatalf("%d assignments, want %d", len(resp.Assignments), sessions)
	}
	if a, err := s.AssignmentErr(0, 17); err != nil || a.BAISeq != resp.BAISeq {
		t.Fatalf("poll after the round trip: %+v %v, want an assignment installed at %d", a, err, resp.BAISeq)
	}
}
