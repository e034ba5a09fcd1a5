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
// its events: one opens a group with OpenGroup, the other with one Open
// per session, and what each ends up with is compared.
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

// open opens flows in cell 0 on both servers, the two ways, and returns
// the two errors.
func (p *openPair) open(ladder has.Ladder, flows []int) (groupErr, singleErr error) {
	groupErr = p.group.OpenGroup(0, ladder, flows)
	for _, id := range flows {
		if _, singleErr = p.single.Open(0, SessionRequest{FlowID: id, LadderBps: ladder}); singleErr != nil {
			break
		}
	}
	return groupErr, singleErr
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
		t.Fatalf("OpenGroup left %d sessions, the Opens %d", groupCount, singleCount)
	}
	for _, id := range flows {
		var gs, ss core.SessionSnapshot
		var gerr, serr error
		if c := p.group.lookup(0); c != nil {
			gs, gerr = c.controller.Snapshot(id)
		}
		if c := p.single.lookup(0); c != nil {
			ss, serr = c.controller.Snapshot(id)
		}
		if (gerr == nil) != (serr == nil) || !reflect.DeepEqual(gs, ss) {
			t.Errorf("flow %d: OpenGroup snapshot %+v (%v), the Opens %+v (%v)", id, gs, gerr, ss, serr)
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
		t.Errorf("events differ:\nOpenGroup %+v\nOpens     %+v", ge, se)
	}
}

// sameError fails the test unless the two paths refused alike.
func sameError(t *testing.T, groupErr, singleErr, want error) {
	t.Helper()
	if !errors.Is(groupErr, want) || !errors.Is(singleErr, want) {
		t.Fatalf("want %v from both: OpenGroup %v, the Opens %v", want, groupErr, singleErr)
	}
	if groupErr.Error() != singleErr.Error() {
		t.Errorf("OpenGroup refused with %q, the Opens with %q", groupErr, singleErr)
	}
}

// TestOpenGroupMatchesOpens: OpenGroup is one Open per session in index
// order, down to the refusals and the trace. Each case runs both ways on
// two servers prepared alike and compares the sessions, their snapshots
// and the recorded event sequence.
func TestOpenGroupMatchesOpens(t *testing.T) {
	ladder := has.SimLadder()
	flows := []int{3, 5, 6, 9, 12, 20, 21}

	t.Run("opens", func(t *testing.T) {
		p := newOpenPair(false)
		// Flow 6 is open already, with the group's ladder: its open is
		// the idempotent one, which adds no session and no event.
		p.both(func(s *Server) {
			if err := s.OpenSession(0, SessionRequest{FlowID: 6, LadderBps: ladder}); err != nil {
				t.Fatal(err)
			}
		})
		if ge, se := p.open(ladder, flows); ge != nil || se != nil {
			t.Fatalf("OpenGroup: %v, the Opens: %v", ge, se)
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
			if err := s.OpenSession(0, SessionRequest{FlowID: 9, LadderBps: []float64{100_000, 900_000}}); err != nil {
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
			t.Fatalf("OpenGroup refused with %v, the Opens with %v", ge, se)
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

// TestOpenGroupSizesTableOnce: a group's open grows the cell's flow
// table once, to room for the whole group, instead of doubling it from
// the first session's few rows, so a group of 200 costs the allocations
// a group of 20 does.
func TestOpenGroupSizesTableOnce(t *testing.T) {
	s := NewServer(core.DefaultConfig(), nil)
	ladder := has.SimLadder()
	cell := 0
	allocs := func(n int) float64 {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		// Each open goes into a cell of its own, created beforehand, so
		// only the open is counted: AllocsPerRun runs it twice.
		s.cell(cell)
		s.cell(cell + 1)
		a := testing.AllocsPerRun(1, func() {
			if err := s.OpenGroup(cell, ladder, ids); err != nil {
				t.Fatal(err)
			}
			cell++
		})
		if got := s.lookup(cell - 1).controller.NumFlows(); got != n {
			t.Fatalf("%d sessions open, want %d", got, n)
		}
		return a
	}
	small, large := allocs(20), allocs(200)
	t.Logf("OpenGroup: %v allocations for 20 sessions, %v for 200", small, large)
	if large != small {
		t.Errorf("opening 200 sessions allocated %v times, 20 sessions %v: the table regrew", large, small)
	}
}
