package oneapi

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
)

// healthyReport builds a statistics report in which every listed flow
// has ample radio headroom, so the optimiser places them high and PCEF
// installs run every round.
func healthyReport(flows ...int) StatsReport {
	m := make(map[int]core.FlowStats, len(flows))
	for _, f := range flows {
		m[f] = core.FlowStats{Bytes: 1_000_000, RBs: 50_000}
	}
	return StatsReport{Flows: m}
}

// TestConcurrentCellsRaceHammer exercises the whole per-cell surface —
// Open, RunBAIReport, AssignmentErr polls, SetPreferences,
// CloseSession, and cross-cell Handover — concurrently across many
// cells, each created concurrently on first contact, and some dropped
// and created again as their last session closes and a new one opens.
// Beyond "no unexpected error" it asserts only that an open racing a
// drop lands in the cell the server holds; its other teeth are the
// race detector (make check runs the package under -race) and the
// deadlock timeout.
func TestConcurrentCellsRaceHammer(t *testing.T) {
	const (
		cells    = 48
		flows    = 4
		rounds   = 6
		handoffs = 64
		churns   = 200
	)
	s := serverForTest()
	errc := make(chan error, 256)
	var wg sync.WaitGroup

	// One goroutine per cell: the eNodeB loop (open, report, poll, close).
	for c := 0; c < cells; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			base := c * 1000
			ids := make([]int, flows)
			for i := range ids {
				ids[i] = base + i
				if _, err := s.Open(c, SessionRequest{FlowID: ids[i], LadderBps: has.SimLadder()}); err != nil {
					errc <- fmt.Errorf("cell %d open %d: %w", c, ids[i], err)
					return
				}
			}
			for r := 0; r < rounds; r++ {
				if _, err := s.RunBAIReport(c, healthyReport(ids...), nil); err != nil {
					errc <- fmt.Errorf("cell %d round %d: %w", c, r, err)
					return
				}
				for _, f := range ids {
					if _, err := s.AssignmentErr(c, f); err != nil && !errors.Is(err, ErrUnknownSession) {
						// ErrUnknownSession is legal: a handover
						// goroutine may have moved the flow away.
						errc <- fmt.Errorf("cell %d poll %d: %w", c, f, err)
						return
					}
				}
				if err := s.SetPreferences(c, ids[0], core.Preferences{MaxBps: 2_000_000}); err != nil && !errors.Is(err, ErrUnknownSession) {
					errc <- fmt.Errorf("cell %d prefs: %w", c, err)
					return
				}
			}
			// Churn the last flow: close then re-open.
			s.CloseSession(c, ids[flows-1])
			if _, err := s.Open(c, SessionRequest{FlowID: ids[flows-1], LadderBps: has.SimLadder()}); err != nil {
				errc <- fmt.Errorf("cell %d re-open: %w", c, err)
			}
		}(c)
	}

	// Handover goroutines shuttle dedicated flows between cell pairs
	// while the eNodeB loops run.
	for h := 0; h < handoffs; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			from, to := h%cells, (h+17)%cells
			if from == to {
				return
			}
			flow := 500_000 + h
			if _, err := s.Open(from, SessionRequest{FlowID: flow, LadderBps: has.SimLadder()}); err != nil {
				errc <- fmt.Errorf("handover open %d: %w", flow, err)
				return
			}
			for i := 0; i < 4; i++ {
				if err := s.Handover(from, to, flow); err != nil {
					errc <- fmt.Errorf("handover %d->%d flow %d: %w", from, to, flow, err)
					return
				}
				from, to = to, from
			}
		}(h)
	}

	// Cells that empty and come back under load: in each, two goroutines
	// open, poll and close a session of their own, over and over, so
	// either one's close may drop the cell while the other opens. An
	// open that races a drop must land in the cell the server holds:
	// the session is then there for the poll that follows, answered "no
	// assignment yet", never as an unknown cell or session.
	for c := 0; c < cells; c++ {
		cell := 10_000 + c
		for flow := 1; flow <= 2; flow++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < churns; i++ {
					if _, err := s.Open(cell, SessionRequest{FlowID: flow, LadderBps: has.SimLadder()}); err != nil {
						errc <- fmt.Errorf("cell %d churn open %d: %w", cell, flow, err)
						return
					}
					if _, err := s.AssignmentErr(cell, flow); !errors.Is(err, ErrNoAssignment) {
						errc <- fmt.Errorf("cell %d poll %d after its open: %v, want ErrNoAssignment", cell, flow, err)
						return
					}
					s.CloseSession(cell, flow)
				}
			}()
		}
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestHandoversBothWaysDoNotDeadlock: two goroutines hand sessions
// between the same two cells in opposite directions. Handover locks both
// cells, in cell-ID order; locked in argument order instead, each
// goroutine can hold its source cell while waiting for the other's, and
// the two deadlock. The lockorder analyzer cannot see that regression:
// the both-cells lock is its sanctioned equal-rank waiver.
func TestHandoversBothWaysDoNotDeadlock(t *testing.T) {
	s := serverForTest()
	done := make(chan error, 2)
	var ready atomic.Int32
	for g, cell := range []int{0, 1} {
		flow := 700_000 + g
		if _, err := s.Open(cell, SessionRequest{FlowID: flow, LadderBps: has.SimLadder()}); err != nil {
			t.Fatal(err)
		}
		go func() {
			// Both goroutines are running before either hands over.
			for ready.Add(1); ready.Load() < 2; {
				runtime.Gosched()
			}
			// Half a second of handovers, not a count: on a loaded
			// host the two may share one CPU, and only a preemption
			// between a handover's two locks lets the other in.
			from, to := cell, 1-cell
			for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
				if err := s.Handover(from, to, flow); err != nil {
					done <- err
					return
				}
				from, to = to, from
			}
			done <- nil
		}()
	}
	deadline := time.After(30 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("handovers between cells 0 and 1 still running after 30 s: deadlocked")
		}
	}
}

// TestHandoverContinuity pins the cell-to-cell transfer semantics:
// the flow keeps its session ID and current assignment across the
// move, and the assignment's age in BAIs — the staleness signal
// polling plugins act on — is preserved relative to the target cell's
// own BAI history.
func TestHandoverContinuity(t *testing.T) {
	s := serverForTest()
	const flow = 1

	// Source cell 0: first BAI installs the flow at the ladder top...
	if _, err := s.Open(0, SessionRequest{FlowID: flow, LadderBps: has.SimLadder()}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunBAIReport(0, healthyReport(flow), nil); err != nil {
		t.Fatal(err)
	}
	// ...then two rounds of PCEF failure age it: the re-offered rate is
	// not lower, so the previous assignment is kept and its install
	// sequence lags.
	failing := perFlow(func(int, float64) error { return errors.New("pcef down") })
	for i := 0; i < 2; i++ {
		if _, err := s.RunBAIReport(0, healthyReport(flow), failing); err == nil {
			t.Fatal("failing PCEF round reported success")
		}
	}
	before, err := s.AssignmentErr(0, flow)
	if err != nil {
		t.Fatal(err)
	}
	if before.CellSeq-before.BAISeq != 2 {
		t.Fatalf("pre-handover age = %d, want 2", before.CellSeq-before.BAISeq)
	}

	// Target cell 33 has its own BAI history, deeper than the assignment's age.
	if _, err := s.Open(33, SessionRequest{FlowID: 9, LadderBps: has.SimLadder()}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.RunBAIReport(33, healthyReport(9), nil); err != nil {
			t.Fatal(err)
		}
	}

	if err := s.Handover(0, 33, flow); err != nil {
		t.Fatal(err)
	}

	// Same session ID, same published assignment, same age — now
	// expressed against the target cell's sequence numbers.
	after, err := s.AssignmentErr(33, flow)
	if err != nil {
		t.Fatalf("post-handover poll: %v", err)
	}
	if after.FlowID != flow || after.RateBps != before.RateBps || after.Level != before.Level {
		t.Fatalf("assignment changed across handover: %+v -> %+v", before, after)
	}
	if after.CellSeq != 5 || after.BAISeq != 3 {
		t.Fatalf("age not preserved: CellSeq=%d BAISeq=%d, want 5 and 3", after.CellSeq, after.BAISeq)
	}

	// The source no longer knows the session: it was the cell's last,
	// so the server no longer holds the cell either...
	if _, err := s.AssignmentErr(0, flow); !errors.Is(err, ErrUnknownCell) {
		t.Fatalf("source poll after handover: %v, want ErrUnknownCell", err)
	}
	if err := s.Handover(0, 33, flow); !errors.Is(err, ErrUnknownCell) {
		t.Fatalf("repeat handover: %v, want ErrUnknownCell", err)
	}
	// ...and the target's next BAI re-optimises the flow with a fresh
	// install (history restarts: the source cell's radio costs are
	// meaningless at the new eNodeB).
	if _, err := s.RunBAIReport(33, healthyReport(9, flow), nil); err != nil {
		t.Fatal(err)
	}
	fresh, err := s.AssignmentErr(33, flow)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.BAISeq != fresh.CellSeq {
		t.Fatalf("post-BAI BAISeq=%d CellSeq=%d, want equal (fresh install)", fresh.BAISeq, fresh.CellSeq)
	}
}

// TestHandoverToFreshCell: when the target cell is younger than the
// assignment's age, the age clamps to the target's full history — the
// target cell can only vouch for BAIs it ran.
func TestHandoverToFreshCell(t *testing.T) {
	s := serverForTest()
	if _, err := s.Open(0, SessionRequest{FlowID: 1, LadderBps: has.SimLadder()}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunBAIReport(0, healthyReport(1), nil); err != nil {
		t.Fatal(err)
	}
	failing := perFlow(func(int, float64) error { return errors.New("pcef down") })
	for i := 0; i < 3; i++ {
		if _, err := s.RunBAIReport(0, healthyReport(1), failing); err == nil {
			t.Fatal("failing PCEF round reported success")
		}
	}
	// Age 3, target cell brand new (baiSeq 0): clamp to 0.
	if err := s.Handover(0, 7, 1); err != nil {
		t.Fatal(err)
	}
	a, err := s.AssignmentErr(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.BAISeq != 0 || a.CellSeq != 0 {
		t.Fatalf("fresh-cell handover: %+v, want clamped zero age", a)
	}
}

// TestHandoverHTTP covers the wire binding of the transfer.
func TestHandoverHTTP(t *testing.T) {
	s := serverForTest()
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	if _, err := s.Open(0, SessionRequest{FlowID: 4, LadderBps: has.SimLadder()}); err != nil {
		t.Fatal(err)
	}
	post := func(cell, flow, toCell int) *http.Response {
		t.Helper()
		url := fmt.Sprintf("%s/oneapi/v4/cells/%d/sessions/%d/handover", srv.URL, cell, flow)
		resp, err := http.Post(url, "application/json", strings.NewReader(fmt.Sprintf(`{"to_cell":%d}`, toCell)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post(0, 4, 2); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("handover status %d, want 204", resp.StatusCode)
	}
	if _, err := s.AssignmentErr(2, 4); errors.Is(err, ErrUnknownSession) {
		t.Fatal("session did not move to cell 2")
	}
	// Unknown session (already moved away) is a 404, not a 400.
	if resp := post(0, 4, 2); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stale handover status %d, want 404", resp.StatusCode)
	}
	// Same-cell transfer is a request error.
	if resp := post(2, 4, 2); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("self handover status %d, want 400", resp.StatusCode)
	}
}

// TestBatchPCEFEquivalence runs the same session population and report
// stream through a PCEF that installs flow by flow (perFlow) and one
// written for the whole batch, with the same per-flow outcomes,
// asserting identical responses, identical published assignments, and
// the identical downgrade/upgrade fold — how a PCEF walks its batch
// must never change what the server publishes.
func TestBatchPCEFEquivalence(t *testing.T) {
	// fail marks which flows' installs fail each round.
	fail := func(flowID int) bool { return flowID == 2 }
	single := perFlow(func(flowID int, _ float64) error {
		if fail(flowID) {
			return errors.New("bearer busy")
		}
		return nil
	})
	var batchCalls int
	batch := PCEF(func(installs []GBRInstall) []error {
		batchCalls++
		errs := make([]error, len(installs))
		any := false
		for i, in := range installs {
			if fail(in.FlowID) {
				errs[i] = errors.New("bearer busy")
				any = true
			}
		}
		if !any {
			return nil
		}
		return errs
	})

	run := func(pcef PCEF) (responses []StatsResponse, views []AssignmentResponse) {
		s := serverForTest()
		for _, f := range []int{1, 2, 3} {
			if _, err := s.Open(0, SessionRequest{FlowID: f, LadderBps: has.SimLadder()}); err != nil {
				t.Fatal(err)
			}
		}
		// Three rounds with shifting radio stats so assignments move
		// (the failing flow hits both the first-install and the
		// keep-previous folds).
		for r := 0; r < 3; r++ {
			rep := StatsReport{Flows: map[int]core.FlowStats{
				1: {Bytes: 1_000_000, RBs: 50_000},
				2: {Bytes: 400_000 + int64(r)*100_000, RBs: 30_000},
				3: {Bytes: 200_000, RBs: 20_000 + int64(r)*5_000},
			}}
			resp, err := s.RunBAIReport(0, rep, pcef)
			var ee *EnforceError
			if err != nil && !errors.As(err, &ee) {
				t.Fatal(err)
			}
			responses = append(responses, resp)
		}
		for _, f := range []int{1, 2, 3} {
			v, err := s.AssignmentErr(0, f)
			if err != nil && !errors.Is(err, ErrNoAssignment) {
				t.Fatal(err)
			}
			views = append(views, v)
		}
		return responses, views
	}

	wantResp, wantViews := run(single)
	gotResp, gotViews := run(batch)
	if fmt.Sprintf("%+v", gotResp) != fmt.Sprintf("%+v", wantResp) {
		t.Errorf("batch responses diverged\n got: %+v\nwant: %+v", gotResp, wantResp)
	}
	if fmt.Sprintf("%+v", gotViews) != fmt.Sprintf("%+v", wantViews) {
		t.Errorf("batch poll views diverged\n got: %+v\nwant: %+v", gotViews, wantViews)
	}
	if batchCalls != 3 {
		t.Errorf("batch PCEF called %d times, want 3 (one grouped call per round)", batchCalls)
	}
}

// TestBatchPCEFBrokenContract: a batch implementation returning the
// wrong result count fails every install in the round — no flow
// silently advances on an unaccounted result.
func TestBatchPCEFBrokenContract(t *testing.T) {
	s := serverForTest()
	for _, f := range []int{1, 2} {
		if _, err := s.Open(0, SessionRequest{FlowID: f, LadderBps: has.SimLadder()}); err != nil {
			t.Fatal(err)
		}
	}
	broken := PCEF(func(installs []GBRInstall) []error {
		return make([]error, len(installs)+1)
	})
	resp, err := s.RunBAIReport(0, healthyReport(1, 2), broken)
	var ee *EnforceError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want *EnforceError", err)
	}
	if len(resp.Failed) != 2 || len(resp.Assignments) != 0 {
		t.Fatalf("broken batch committed flows: %+v", resp)
	}
	for _, f := range resp.Failed {
		if !strings.Contains(f.Reason, "batch pcef returned") {
			t.Errorf("failure reason %q does not name the contract breach", f.Reason)
		}
	}
}

// BenchmarkRunBAIDistinctCells measures whether BAI rounds on distinct
// cells serialize on each other: each goroutine b.RunParallel starts
// (GOMAXPROCS of them) owns one cell of 24 fine-ladder sessions and runs
// RunBAIReport rounds on it, cycling through the same 16 reports of the
// shape the ledger's metro_shared cells send, so every cell does the
// same work. ns/op is wall time per round over all goroutines, so at
// -cpu 1,2 the second figure is half the first when two cells' rounds
// share nothing.
func BenchmarkRunBAIDistinctCells(b *testing.B) {
	const sessions, reports = 24, 16
	ladder := has.FineLadder()
	s := NewServer(core.DefaultConfig(), nil)
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		for f := 0; f < sessions; f++ {
			if _, err := s.Open(c, SessionRequest{FlowID: f, LadderBps: ladder}); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Read-only from here on: the goroutines share the reports.
	var rs [reports]StatsReport
	for r := range rs {
		flows := make(map[int]core.FlowStats, sessions)
		for f := 0; f < sessions; f++ {
			h := uint64(r*sessions+f+1) * 0x9e3779b97f4a7c15
			flows[f] = core.FlowStats{
				Bytes: int64(ladder[len(ladder)/2] / 8 * (0.5 + float64(h>>54)/1024)),
				RBs:   int64(45_000 / sessions * (0.5 + float64(h>>22&1023)/1024)),
			}
		}
		rs[r] = StatsReport{Flows: flows}
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := int(next.Add(1) - 1)
		for r := 0; pb.Next(); r++ {
			if _, err := s.RunBAIReport(c, rs[r%reports], nil); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
