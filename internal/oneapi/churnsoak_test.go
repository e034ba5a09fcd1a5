package oneapi

import (
	"errors"
	"runtime"
	"testing"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/obs"
)

// soakCycle is one churn arrival/departure: open (admission-gated), one
// BAI with a stats report, close. Fresh flow IDs every cycle, like the
// churn generator's.
func soakCycle(t *testing.T, s *Server, flowID int) {
	t.Helper()
	err := s.OpenSession(0, SessionRequest{FlowID: flowID, LadderBps: has.SimLadder()})
	if err != nil && !errors.Is(err, ErrAdmissionRejected) {
		t.Fatal(err)
	}
	report := StatsReport{Flows: map[int]core.FlowStats{
		flowID: {Bytes: 500_000, RBs: 20_000},
	}}
	if _, err := s.RunBAIReport(0, report, nil); err != nil {
		t.Fatal(err)
	}
	s.CloseSession(0, flowID)
}

// TestChurnSoakBoundedMemory is the ROADMAP item-5 churn-soak bound: 10k
// session arrive/depart cycles through an admission-gated server must
// not grow the session table, the wait queue, or the flight-recorder
// ring — and must not retain per-flow state on the heap. Per-BAI
// telemetry (the solver wall-time history, capped at 32 KB a cell)
// fits comfortably inside the slack; a leak of even a bare session
// struct per cycle blows through it.
func TestChurnSoakBoundedMemory(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Delta = 1
	cfg.AdmissionControl = true
	cfg.DowngradeLadder = true
	s := NewServer(cfg, nil)
	rec := obs.New(obs.Options{RingSize: 512})
	s.SetRecorder(rec)

	const warmup, cycles = 1_000, 10_000
	for i := 0; i < warmup; i++ {
		soakCycle(t, s, i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)

	for i := 0; i < cycles; i++ {
		soakCycle(t, s, warmup+i)
	}

	// Structural bounds: nothing per-flow survives its departure. A
	// flow's install record lives on its controller row, so no rows
	// means no records either.
	c := s.lookup(0)
	c.mu.Lock()
	nFlows, nQueue := c.controller.NumFlows(), len(c.queue)
	c.mu.Unlock()
	if nFlows != 0 {
		t.Errorf("session state retained after churn: %d flows", nFlows)
	}
	if nQueue != 0 {
		t.Errorf("wait queue retained %d departed flows", nQueue)
	}
	if n := len(rec.Snapshot()); n > 512 {
		t.Errorf("flight-recorder ring grew past its capacity: %d events", n)
	}

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	// 10k leaked sessions would retain >2 MB; the solve-time history
	// retains at most 32 KB. 1 MB splits them cleanly.
	const maxGrowth = 1 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > maxGrowth {
		t.Errorf("heap grew %d bytes across %d churn cycles (bound %d): per-flow state is leaking",
			grew, cycles, int64(maxGrowth))
	}
}
