package oneapi

import (
	"errors"
	"reflect"
	"testing"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/obs"
)

// openPair is two servers with the same configuration, each recording
// its events: one holds cell 0 first, as a simulated cell's driver does
// for its group, the other serves it, and the same Opens go into both.
// What each ends up with is compared: the hold changes which cells the
// server keeps, never what an open does.
type openPair struct {
	group, single         *Server
	groupSink, singleSink *obs.MemorySink
}

func newOpenPair(admission bool) *openPair {
	cfg := core.DefaultConfig()
	cfg.AdmissionControl = admission
	p := &openPair{
		group: NewServer(cfg, nil), single: NewServer(cfg, nil),
		groupSink: obs.NewMemorySink(), singleSink: obs.NewMemorySink(),
	}
	p.group.SetRecorder(obs.New(obs.Options{RingSize: -1, Sinks: []obs.Sink{p.groupSink}}))
	p.single.SetRecorder(obs.New(obs.Options{RingSize: -1, Sinks: []obs.Sink{p.singleSink}}))
	return p
}

// both applies one operation to both servers.
func (p *openPair) both(fn func(s *Server)) {
	fn(p.group)
	fn(p.single)
}

// open holds cell 0 for flows on the group's server, then opens flows
// in cell 0 on both servers, one Open per flow in slice order stopping
// at the first error, and returns the two errors.
func (p *openPair) open(ladder has.Ladder, flows []int) (groupErr, singleErr error) {
	p.group.Hold(0, len(flows))
	opens := func(s *Server) error {
		for _, id := range flows {
			if _, err := s.Open(0, SessionRequest{FlowID: id, LadderBps: ladder}); err != nil {
				return err
			}
		}
		return nil
	}
	return opens(p.group), opens(p.single)
}

// compare fails the test unless the two servers hold the same sessions
// (count and per-flow snapshot) and recorded the same events in the
// same order.
func (p *openPair) compare(t *testing.T, flows []int) {
	t.Helper()
	var groupCount, singleCount int
	if c := p.group.lookup(0); c != nil {
		groupCount = c.controller.NumFlows()
	}
	if c := p.single.lookup(0); c != nil {
		singleCount = c.controller.NumFlows()
	}
	if groupCount != singleCount {
		t.Fatalf("the held cell's opens left %d sessions, the Opens %d", groupCount, singleCount)
	}
	// A flow with no session snapshots as an error, whether or not its
	// server holds the cell.
	snapshot := func(s *Server, id int) (core.SessionSnapshot, error) {
		if c := s.lookup(0); c != nil {
			return c.controller.Snapshot(id)
		}
		return core.SessionSnapshot{}, ErrUnknownCell
	}
	for _, id := range flows {
		gs, gerr := snapshot(p.group, id)
		ss, serr := snapshot(p.single, id)
		if (gerr == nil) != (serr == nil) || !reflect.DeepEqual(gs, ss) {
			t.Errorf("flow %d: held cell snapshot %+v (%v), the Opens %+v (%v)", id, gs, gerr, ss, serr)
		}
	}
	ge, se := p.groupSink.Events(), p.singleSink.Events()
	for i := range ge {
		ge[i].Wall = 0
	}
	for i := range se {
		se[i].Wall = 0
	}
	if !reflect.DeepEqual(ge, se) {
		t.Errorf("events differ:\nheld cell %+v\nserved    %+v", ge, se)
	}
}

// sameError fails the test unless the two paths refused alike.
func sameError(t *testing.T, groupErr, singleErr, want error) {
	t.Helper()
	if !errors.Is(groupErr, want) || !errors.Is(singleErr, want) {
		t.Fatalf("want %v from both: held cell %v, served %v", want, groupErr, singleErr)
	}
	if groupErr.Error() != singleErr.Error() {
		t.Errorf("held cell refused with %q, served with %q", groupErr, singleErr)
	}
}

// TestOpenGroupMatchesOpens: a group's sessions opened into a cell its
// driver holds (Server.Hold) fare exactly as the same Opens into a
// served cell, down to the refusals and the trace. Each case runs both
// ways on two servers prepared alike and compares the sessions, their
// snapshots and the recorded event sequence.
func TestOpenGroupMatchesOpens(t *testing.T) {
	ladder := has.SimLadder()
	flows := []int{3, 5, 6, 9, 12, 20, 21}

	t.Run("opens", func(t *testing.T) {
		p := newOpenPair(false)
		// Flow 6 is open already, with the group's ladder: its open is
		// the idempotent one, which adds no session and no event.
		p.both(func(s *Server) {
			if _, err := s.Open(0, SessionRequest{FlowID: 6, LadderBps: ladder}); err != nil {
				t.Fatal(err)
			}
		})
		if ge, se := p.open(ladder, flows); ge != nil || se != nil {
			t.Fatalf("held cell: %v, served: %v", ge, se)
		}
		p.compare(t, flows)
		if n := p.group.lookup(0).controller.NumFlows(); n != len(flows) {
			t.Errorf("%d sessions open, want %d", n, len(flows))
		}
		// A session_open per session, flow 6's from its first open.
		if n := p.groupSink.Len(); n != len(flows) {
			t.Errorf("%d events recorded, want %d", n, len(flows))
		}
	})

	t.Run("ladder conflict", func(t *testing.T) {
		p := newOpenPair(false)
		// Flow 9 is open with another ladder: both ways open the flows
		// before it and stop there.
		p.both(func(s *Server) {
			if _, err := s.Open(0, SessionRequest{FlowID: 9, LadderBps: []float64{100_000, 900_000}}); err != nil {
				t.Fatal(err)
			}
		})
		ge, se := p.open(ladder, flows)
		sameError(t, ge, se, ErrSessionConflict)
		p.compare(t, flows)
		if n := p.group.lookup(0).controller.NumFlows(); n != 4 {
			t.Errorf("%d sessions open, want the 3 before the conflict and flow 9", n)
		}
	})

	t.Run("draining", func(t *testing.T) {
		p := newOpenPair(false)
		p.both(func(s *Server) { s.BeginDrain() })
		ge, se := p.open(ladder, flows)
		sameError(t, ge, se, ErrDraining)
		p.compare(t, flows)
	})

	t.Run("invalid ladder", func(t *testing.T) {
		p := newOpenPair(false)
		ge, se := p.open(has.Ladder{400_000, 200_000}, flows)
		if ge == nil || se == nil || ge.Error() != se.Error() {
			t.Fatalf("held cell refused with %v, served with %v", ge, se)
		}
		p.compare(t, flows)
	})

	t.Run("admission", func(t *testing.T) {
		// With admission control the predicate runs per session, so a
		// group larger than the budget stops at its first rejection,
		// which queues that flow.
		p := newOpenPair(true)
		many := make([]int, 40)
		for i := range many {
			many[i] = 2 * i
		}
		ge, se := p.open(ladder, many)
		sameError(t, ge, se, ErrAdmissionRejected)
		p.compare(t, many)
		if len(p.group.lookup(0).queue) != 1 || len(p.single.lookup(0).queue) != 1 {
			t.Errorf("wait queues hold %d and %d flows, want the rejected one", len(p.group.lookup(0).queue), len(p.single.lookup(0).queue))
		}
	})
}

// TestHeldCellArrivalsAllocateNothing: sessions arriving one at a time
// into a held cell, each followed by a BAI round, regrow nothing. The
// first wave sizes the cell's round buffers once, from the flow table
// Hold sized, so a wave of 200 costs the allocations a wave of 20 does;
// once the cell has emptied, the next wave allocates nothing at all —
// the emptied cell, its controller and its buffers are all kept.
func TestHeldCellArrivalsAllocateNothing(t *testing.T) {
	s := NewServer(core.DefaultConfig(), nil)
	ladder := has.SimLadder()
	pcef := func([]GBRInstall) []error { return nil }
	var resp StatsResponse
	wave := func(cell, n int) {
		for id := 0; id < n; id++ {
			if _, err := s.Open(cell, SessionRequest{FlowID: id, LadderBps: ladder}); err != nil {
				t.Fatal(err)
			}
			if err := s.RunBAIInto(cell, StatsReport{}, pcef, &resp); err != nil {
				t.Fatal(err)
			}
			if len(resp.Assignments) != id+1 {
				t.Fatalf("round assigned %d flows, want %d", len(resp.Assignments), id+1)
			}
		}
		for id := 0; id < n; id++ {
			s.CloseSession(cell, id)
		}
	}
	cell := 0
	firstWave := func(n int) float64 {
		// Each wave goes into a cell of its own, held beforehand, so
		// only the wave is counted: AllocsPerRun runs it twice.
		s.Hold(cell, n)
		s.Hold(cell+1, n)
		resp = StatsResponse{}
		return testing.AllocsPerRun(1, func() {
			resp = StatsResponse{}
			wave(cell, n)
			cell++
		})
	}
	large, small := firstWave(200), firstWave(20)
	t.Logf("first wave into a held cell: %v allocations for 200 sessions, %v for 20", large, small)
	if large != small {
		t.Errorf("a first wave of 200 sessions allocated %v times, one of 20 %v: the cell regrew its buffers", large, small)
	}
	if s.lookup(cell-1) == nil {
		t.Fatal("the server dropped a held cell when it emptied")
	}
	if again := testing.AllocsPerRun(3, func() { wave(cell-1, 20) }); again != 0 {
		t.Errorf("a wave into a held cell that has emptied allocated %v times, want 0", again)
	}
}

// TestHeldCellKeepsItsControllerWhenEmpty: a held cell that empties and
// refills is the same cell. Its controller is kept, so the BAI sequence
// continues where it stopped, the solve count does too, and a report
// older than the last one accepted is still refused. A served cell
// that empties is dropped, and one opened in its place starts over.
func TestHeldCellKeepsItsControllerWhenEmpty(t *testing.T) {
	ladder := has.SimLadder()
	report := func(seq int64) StatsReport {
		return StatsReport{Seq: seq, Flows: map[int]core.FlowStats{1: {Bytes: 1e6, RBs: 40_000}}}
	}
	for _, held := range []bool{true, false} {
		s := NewServer(core.DefaultConfig(), nil)
		if held {
			s.Hold(0, 4)
		}
		open := func() {
			if _, err := s.Open(0, SessionRequest{FlowID: 1, LadderBps: ladder}); err != nil {
				t.Fatal(err)
			}
		}
		open()
		before := s.lookup(0)
		for seq := int64(1); seq <= 3; seq++ {
			if _, err := s.RunBAIReport(0, report(seq), nil); err != nil {
				t.Fatal(err)
			}
		}
		s.CloseSession(0, 1)
		if got := s.lookup(0); (got == before) != held {
			t.Fatalf("held=%v: the cell was kept: %v, want %v", held, got == before, held)
		}
		open()
		if held && s.lookup(0).controller != before.controller {
			t.Fatal("the held cell's controller was replaced")
		}
		_, err := s.RunBAIReport(0, report(3), nil)
		if stale := errors.Is(err, ErrStaleReport); stale != held {
			t.Errorf("held=%v: a report as old as the last accepted was refused: %v (%v), want %v", held, stale, err, held)
		}
		resp, err := s.RunBAIReport(0, report(4), nil)
		if err != nil {
			t.Fatal(err)
		}
		n, _, _ := s.LastSolve(0)
		// A served cell starts over: the report a held cell refuses as
		// stale is its first round.
		wantSeq, wantSolves := int64(2), int64(2)
		if held {
			wantSeq, wantSolves = 4, 4
		}
		if resp.BAISeq != wantSeq || n != wantSolves {
			t.Errorf("held=%v: after the refill the round is BAI %d and solve %d, want %d and %d", held, resp.BAISeq, n, wantSeq, wantSolves)
		}
	}
}
