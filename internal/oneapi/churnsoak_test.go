package oneapi

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
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
	_, err := s.Open(0, SessionRequest{FlowID: flowID, LadderBps: has.SimLadder()})
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

	// Structural bounds: nothing per-flow survives its departure. The
	// cell's last session closed with no open queued, so the server no
	// longer holds the cell, and with it every flow row, install record
	// and queue entry.
	if c := s.lookup(0); c != nil {
		c.mu.Lock()
		t.Errorf("cell retained after churn: %d flows, %d queued", c.controller.NumFlows(), len(c.queue))
		c.mu.Unlock()
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

// TestUnheldCellsRetainNothing: distinct cell IDs leave state in
// proportion to the cells held, not to the IDs ever named. 20,000
// statistics reports to distinct cells the server does not hold create
// nothing, 20,000 sessions, each opened and closed in a cell of its
// own, leave no cell behind, and neither do 20,000 data flows, each
// registered and unregistered at the PCRF in a cell of its own: each
// run retains a constant, where a cell's state (controller and all) is
// some 560 bytes.
func TestUnheldCellsRetainNothing(t *testing.T) {
	const n = 20_000
	for _, tc := range []struct {
		name string
		op   func(t *testing.T, s *Server, h http.Handler, cell int)
	}{
		{"stats to unseen cells", func(t *testing.T, _ *Server, h http.Handler, cell int) {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest("POST", "/oneapi/v4/cells/"+strconv.Itoa(cell)+"/stats",
				strings.NewReader(`{"flows":{"1":{"bytes":1000000,"rbs":50000}},"seq":1}`)))
			if rr.Code != http.StatusNotFound {
				t.Fatalf("stats to unseen cell %d: %d %s", cell, rr.Code, rr.Body)
			}
		}},
		{"open and close in fresh cells", func(t *testing.T, s *Server, _ http.Handler, cell int) {
			if _, err := s.Open(cell, SessionRequest{FlowID: cell, LadderBps: has.SimLadder()}); err != nil {
				t.Fatal(err)
			}
			s.CloseSession(cell, cell)
		}},
		{"data flows in fresh cells", func(_ *testing.T, s *Server, _ http.Handler, cell int) {
			s.PCRF().RegisterDataFlow(cell, 1)
			s.PCRF().UnregisterDataFlow(cell, 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := serverForTest()
			h := Handler(s)
			// Warm-up: the first calls size what every later one reuses.
			for cell := 0; cell < 100; cell++ {
				tc.op(t, s, h, cell)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			for cell := 100; cell < 100+n; cell++ {
				tc.op(t, s, h, cell)
			}
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(s)
			grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
			t.Logf("%d cell IDs: heap grew %d bytes", n, grew)
			// 64 KB is under 4 bytes an ID: one cell kept per ID, or any
			// per-ID entry in the index, is far past it.
			const maxGrowth = 64 << 10
			if grew > maxGrowth {
				t.Errorf("heap grew %d bytes across %d cell IDs (bound %d): cells are retained", grew, n, maxGrowth)
			}
			s.mu.RLock()
			held := len(s.cells)
			s.mu.RUnlock()
			if held != 0 {
				t.Errorf("%d cells held, want 0", held)
			}
			s.pcrf.mu.Lock()
			pcrfHeld := len(s.pcrf.cells)
			s.pcrf.mu.Unlock()
			if pcrfHeld != 0 {
				t.Errorf("PCRF holds %d cells, want 0", pcrfHeld)
			}
		})
	}
}
