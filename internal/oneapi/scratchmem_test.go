package oneapi

import (
	"runtime"
	"testing"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
)

// TestSolverMemoryIndependentOfCellCount is the property the shared
// solver scratch exists for: a server's retained heap per cell is its
// session state, not a private set of DP tables (~128 KB at this
// shape), and a new cell's first BAI finds the tables it needs already
// on the freelist.
func TestSolverMemoryIndependentOfCellCount(t *testing.T) {
	const cells, sessions = 256, 8
	open := func(s *Server, cell int) StatsReport {
		flows := make([]int, sessions)
		for f := range flows {
			flows[f] = cell*sessions + f
			if _, err := s.Open(cell, SessionRequest{FlowID: flows[f], LadderBps: has.SimLadder()}); err != nil {
				t.Fatal(err)
			}
		}
		return healthyReport(flows...)
	}
	round := func(s *Server, cell int, report StatsReport) {
		if _, err := s.RunBAIReport(cell, report, nil); err != nil {
			t.Fatal(err)
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := serverForTest()
	for c := 0; c < cells; c++ {
		report := open(s, c)
		round(s, c, report)
		round(s, c, report)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	const maxPerCell = 16 << 10
	perCell := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / cells
	if perCell >= maxPerCell {
		t.Errorf("retained heap is %d B a cell, want < %d: solver tables are per cell again", perCell, maxPerCell)
	}
	t.Logf("retained heap: %d B a cell (%d cells x %d sessions)", perCell, cells, sessions)

	report := open(s, cells)
	sets, bytes := core.SolverScratchStats()
	round(s, cells, report)
	if sets2, bytes2 := core.SolverScratchStats(); sets2 != sets || bytes2 != bytes {
		t.Errorf("cell %d's first BAI allocated solver tables: %d sets / %d B before, %d / %d after",
			cells+1, sets, bytes, sets2, bytes2)
	}
	runtime.KeepAlive(s)
}

// TestServedCellMemoryIndependentOfBAIs: a served cell's retained heap
// does not grow with the BAIs it has run. The controller keeps its last
// solve time, not a history of them — a history is the simulator's,
// which reads it (once 32 KB a cell after 4,096 BAIs: ~9 MB more live
// heap on a 280-cell server after ~68 minutes of 1 s BAIs).
func TestServedCellMemoryIndependentOfBAIs(t *testing.T) {
	const sessions, warm, more = 8, 200, 4096
	s := serverForTest()
	flows := make([]int, sessions)
	for f := range flows {
		flows[f] = f
		if _, err := s.Open(0, SessionRequest{FlowID: f, LadderBps: has.SimLadder()}); err != nil {
			t.Fatal(err)
		}
	}
	report := healthyReport(flows...)
	var resp StatsResponse
	rounds := func(n int) {
		for i := 0; i < n; i++ {
			if err := s.RunBAIInto(0, report, nil, &resp); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Two collections a reading: after one alone, ~38 KB of the warm-up's
	// garbage still read as live.
	var before, after runtime.MemStats
	rounds(warm)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	rounds(more)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	const maxGrowth = 8 << 10
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= maxGrowth {
		t.Errorf("retained heap grew %d B over %d more BAIs of one cell, want < %d", grew, more, maxGrowth)
	}
	runtime.KeepAlive(s)
}
