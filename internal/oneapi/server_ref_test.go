package oneapi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/sim"
)

// This file keeps a single-threaded reference model of the server's
// bookkeeping — one core.Controller per cell in a plain map, everything
// else written out from the documented contract — and drives it and a
// real Server through the same op sequences, comparing every answer.
// The model shares only the solver with the server: cell creation on
// first contact, open idempotence and conflict, the admission FIFO and
// its promotion, report sequencing, the install record and its age
// across a handover, and the drain refusals are its own.

// refServer is the model: cells by ID, and the drain flag.
type refServer struct {
	cfg      core.Config
	cells    map[int]*refCell
	draining bool
}

type refCell struct {
	ctrl      *core.Controller
	baiSeq    int64
	lastSeq   int64
	queue     []SessionRequest
	installed map[int]refInstall
}

type refInstall struct {
	a   core.Assignment
	seq int64
}

// errRefOther is the model's refusal with no sentinel of its own.
var errRefOther = errors.New("ref: refused")

// refQueueCap is the wait-queue depth the op driver configures.
const refQueueCap = 2

func newRefServer(cfg core.Config) *refServer {
	return &refServer{cfg: cfg, cells: make(map[int]*refCell)}
}

// cell returns a cell, creating it on first contact.
func (m *refServer) cell(id int) *refCell {
	c, ok := m.cells[id]
	if !ok {
		c = &refCell{ctrl: core.NewController(m.cfg), installed: make(map[int]refInstall)}
		m.cells[id] = c
	}
	return c
}

// refPrefsOK is the preferences bound: neither Beta nor ThetaBps past
// its maximum.
func refPrefsOK(p core.Preferences) bool {
	return p.Beta <= core.MaxBeta && p.ThetaBps <= core.MaxThetaBps
}

func (m *refServer) open(cellID int, req SessionRequest) error {
	ladder := has.Ladder(req.LadderBps)
	if ladder.Validate() != nil || len(ladder) > core.MaxLevels || ladder[0] > core.PeakCellRateBps || !refPrefsOK(req.Preferences) {
		return errRefOther
	}
	if m.draining {
		return ErrDraining
	}
	c := m.cell(cellID)
	if snap, err := c.ctrl.Snapshot(req.FlowID); err == nil {
		if !slices.Equal(snap.Ladder, ladder) {
			return ErrSessionConflict
		}
		return c.ctrl.SetPreferences(req.FlowID, req.Preferences)
	}
	if m.cfg.AdmissionControl && !c.ctrl.CanAdmit(ladder) {
		i := slices.IndexFunc(c.queue, func(q SessionRequest) bool { return q.FlowID == req.FlowID })
		switch {
		case i >= 0:
			c.queue[i] = req
		case len(c.queue) < refQueueCap:
			c.queue = append(c.queue, req)
		}
		return ErrAdmissionRejected
	}
	if c.ctrl.Register(req.FlowID, ladder, req.Preferences) != nil {
		return errRefOther
	}
	c.dequeue(req.FlowID)
	return nil
}

func (c *refCell) dequeue(flowID int) {
	c.queue = slices.DeleteFunc(c.queue, func(q SessionRequest) bool { return q.FlowID == flowID })
}

// promote admits the wait queue head-first while the predicate holds; an
// entry whose registration fails is dropped.
func (m *refServer) promote(c *refCell) {
	for m.cfg.AdmissionControl && len(c.queue) > 0 && c.ctrl.CanAdmit(c.queue[0].LadderBps) {
		req := c.queue[0]
		c.queue = c.queue[1:]
		_ = c.ctrl.Register(req.FlowID, req.LadderBps, req.Preferences)
	}
}

func (m *refServer) close(cellID, flowID int) {
	c, ok := m.cells[cellID]
	if !ok {
		return
	}
	c.ctrl.Unregister(flowID)
	delete(c.installed, flowID)
	c.dequeue(flowID)
	m.promote(c)
}

func (m *refServer) setPreferences(cellID, flowID int, prefs core.Preferences) error {
	c, ok := m.cells[cellID]
	if !refPrefsOK(prefs) || !ok || c.ctrl.SetPreferences(flowID, prefs) != nil {
		return errRefOther
	}
	return nil
}

func (m *refServer) handover(fromID, toID, flowID int) error {
	from, ok := m.cells[fromID]
	if fromID == toID || !ok {
		return errRefOther
	}
	to := m.cell(toID)
	snap, err := from.ctrl.Snapshot(flowID)
	if err != nil {
		return ErrUnknownSession
	}
	if to.ctrl.Register(flowID, snap.Ladder, snap.Preferences) != nil {
		return errRefOther
	}
	from.ctrl.Unregister(flowID)
	if in, ok := from.installed[flowID]; ok {
		in.seq = max(to.baiSeq-(from.baiSeq-in.seq), 0)
		to.installed[flowID] = in
		delete(from.installed, flowID)
	}
	from.dequeue(flowID)
	m.promote(from)
	return nil
}

// report is one BAI round; fail says which flows' installs fail.
func (m *refServer) report(cellID int, rep StatsReport, fail func(int) bool) (StatsResponse, error) {
	if m.draining {
		return StatsResponse{}, ErrDraining
	}
	c := m.cell(cellID)
	if rep.Seq > 0 && rep.Seq <= c.lastSeq {
		return StatsResponse{}, ErrStaleReport
	}
	// A row saying a byte took more RBs than a cell has in a TTI is no
	// measurement: the model drops it before the controller sees it.
	flows := make(map[int]core.FlowStats, len(rep.Flows))
	for id, st := range rep.Flows {
		if st.Bytes > 0 && st.RBs > 0 && float64(st.RBs)/float64(st.Bytes) > core.MaxRBsPerByte {
			continue
		}
		flows[id] = st
	}
	as, err := c.ctrl.RunBAI(flows, rep.NumDataFlows)
	if err != nil {
		return StatsResponse{}, errRefOther
	}
	if rep.Seq > 0 {
		c.lastSeq = rep.Seq
	}
	c.baiSeq++
	resp := StatsResponse{Assignments: []core.Assignment{}, BAISeq: c.baiSeq}
	for _, a := range as {
		if fail(a.FlowID) {
			resp.Failed = append(resp.Failed, EnforcementFailure{FlowID: a.FlowID})
			if prev, ok := c.installed[a.FlowID]; ok && a.RateBps < prev.a.RateBps {
				c.installed[a.FlowID] = refInstall{a, prev.seq}
			}
			continue
		}
		c.installed[a.FlowID] = refInstall{a, c.baiSeq}
		resp.Assignments = append(resp.Assignments, a)
	}
	m.promote(c)
	if len(resp.Failed) > 0 {
		return resp, &EnforceError{}
	}
	return resp, nil
}

func (m *refServer) assignment(cellID, flowID int) (AssignmentResponse, error) {
	c, ok := m.cells[cellID]
	if !ok {
		return AssignmentResponse{}, ErrUnknownCell
	}
	in, ok := c.installed[flowID]
	switch {
	case ok:
		return AssignmentResponse{FlowID: in.a.FlowID, RateBps: in.a.RateBps, Level: in.a.Level,
			BAISeq: in.seq, CellSeq: c.baiSeq}, nil
	case c.ctrl.Registered(flowID):
		return AssignmentResponse{}, ErrNoAssignment
	default:
		return AssignmentResponse{}, ErrUnknownSession
	}
}

// errClass names an error by the sentinel it wraps, so the model's
// errors and the server's wrapped ones compare by kind.
func errClass(err error) string {
	if err == nil {
		return "nil"
	}
	var enf *EnforceError
	if errors.As(err, &enf) {
		return "enforce"
	}
	for _, s := range []error{ErrStaleReport, ErrUnknownSession, ErrUnknownCell, ErrNoAssignment,
		ErrSessionConflict, ErrAdmissionRejected, ErrDraining} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	return "other"
}

// The op driver's universe: a few cells and flow IDs, so ops collide.
const (
	refCells = 3
	refFlows = 6
)

// refLadders are what half the opens pick from: a light ladder, two
// whose floors fill the admission budget three and one session deep at
// the default radio cost, and an invalid one. The other half draw any
// ladder the codec accepts (opReader.ladder).
var refLadders = [][]float64{
	has.SimLadder(),
	has.NewLadderKbps(1200, 2400),
	has.NewLadderKbps(3000, 4500),
	{500, 300},
}

// opReader hands out op bytes, zero past the end.
type opReader struct {
	data []byte
	i    int
}

func (r *opReader) next() byte {
	if r.i >= len(r.data) {
		return 0
	}
	r.i++
	return r.data[r.i-1]
}

// u64 reads eight op bytes as one word.
func (r *opReader) u64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = r.next()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// ladderScales are the floors and steps an arbitrary ladder is drawn
// from: zero and one (refused, or a rung of 1 bps), the ladder's own
// scale, floors that fill or overflow the admission budget (the peak
// cell rate the largest a cell takes), and floors past it (refused).
var ladderScales = []float64{0, 1, 1e3, 1e5, 3e6, core.PeakCellRateBps, 4e9, 1e300}

// ladder draws an open's ladder: one of refLadders, or 1 to 300 levels
// from a floor by a step, one rung possibly replaced by any finite
// float — every shape the codec accepts, valid or not, and longer than
// the controller registers more often than not.
func (r *opReader) ladder() []float64 {
	sel := r.next()
	if sel%2 == 0 {
		return refLadders[int(sel/2)%len(refLadders)]
	}
	n := 1 + (int(r.next())<<8|int(r.next()))%300
	floor := ladderScales[int(r.next())%len(ladderScales)]
	step := ladderScales[int(r.next())%len(ladderScales)]
	out := make([]float64, n)
	for i := range out {
		out[i] = floor + float64(i)*step
	}
	if sel&2 != 0 {
		if v := math.Float64frombits(r.u64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[int(r.next())%n] = v
		}
	}
	return out
}

// stats draws a report row: usually a plausible one, otherwise any
// Bytes and RBs — extremes such as 9e18 RBs for one byte included.
func (r *opReader) stats() core.FlowStats {
	b := r.next()
	if b&0x80 == 0 {
		q := int64(b%16) + 1
		return core.FlowStats{Bytes: q * 40_000, RBs: (17 - q) * 3_000}
	}
	extremes := []int64{0, 1, -1, 50_000, 9e18, math.MaxInt64, math.MinInt64}
	pick := func(sel byte) int64 {
		if sel%8 == 7 {
			return int64(r.u64())
		}
		return extremes[sel%8]
	}
	return core.FlowStats{Bytes: pick(b), RBs: pick(b >> 3)}
}

func (r *opReader) cell() int { return int(r.next() % refCells) }
func (r *opReader) flow() int { return 1 + int(r.next()%refFlows) }

// prefBetas and prefThetas are what preferences draw Beta and ThetaBps
// from: mostly the default (0) and ordinary values, then each bound
// exactly, then one value past it (refused).
var (
	prefBetas  = []float64{0, 0, 0, 1, 3, 20, core.MaxBeta, 1e17}
	prefThetas = []float64{0, 0, 0, 0, 0.4e6, 1e6, core.MaxThetaBps, 1e300}
)

func (r *opReader) prefs() core.Preferences {
	b, c := r.next(), r.next()
	return core.Preferences{
		MaxBps:   float64(b%4) * 600_000,
		Beta:     prefBetas[c%8],
		ThetaBps: prefThetas[c>>3%8],
		Skimming: b&0x30 == 0x30,
	}
}

// runServerOps decodes data into ops and applies each to a Server and
// the model. The first byte picks the configuration.
func runServerOps(t *testing.T, data []byte) {
	r := &opReader{data: data}
	cfg := core.DefaultConfig()
	cfg.Delta = 1
	mode := r.next()
	cfg.AdmissionControl = mode&1 == 0
	cfg.DowngradeLadder = mode&2 != 0
	cfg.AdmissionQueue = refQueueCap
	s, m := NewServer(cfg, nil), newRefServer(cfg)
	var lastSeq int64 // the highest report sequence sent so far

	for step := 1; r.i < len(r.data); step++ {
		var what string
		var want, got error
		switch op := r.next() % 8; op {
		case 0, 1:
			cell, req := r.cell(), SessionRequest{FlowID: r.flow()}
			req.LadderBps = r.ladder()
			req.Preferences = r.prefs()
			what = fmt.Sprintf("open cell %d flow %d", cell, req.FlowID)
			want, got = m.open(cell, req), s.OpenSession(cell, req)
		case 2:
			cell, sel, mask, failMask := r.cell(), r.next(), r.next(), r.next()
			rep := StatsReport{Flows: map[int]core.FlowStats{}, NumDataFlows: int(sel>>2) % 4}
			// Unsequenced, fresh, possibly late, or a retransmission.
			switch sel % 4 {
			case 1:
				rep.Seq = int64(step)
			case 2:
				rep.Seq = int64(step - 5)
			case 3:
				rep.Seq = lastSeq
			}
			lastSeq = max(lastSeq, rep.Seq)
			for f := 1; f <= refFlows; f++ {
				if mask&(1<<f) != 0 {
					rep.Flows[f] = r.stats()
				}
			}
			fail := func(flowID int) bool { return failMask&1 != 0 && failMask&(1<<flowID) != 0 }
			what = fmt.Sprintf("report cell %d seq %d", cell, rep.Seq)
			wresp, werr := m.report(cell, rep, fail)
			gresp, gerr := s.RunBAIReport(cell, rep, PCEFFunc(func(flowID int, _ float64) error {
				if fail(flowID) {
					return errRefOther
				}
				return nil
			}))
			want, got = werr, gerr
			if errClass(werr) == "nil" || errClass(werr) == "enforce" {
				compareRound(t, step, what, wresp, gresp)
			}
		case 3:
			cell, flow := r.cell(), r.flow()
			what = fmt.Sprintf("prefs cell %d flow %d", cell, flow)
			prefs := r.prefs()
			want, got = m.setPreferences(cell, flow, prefs), s.SetPreferences(cell, flow, prefs)
		case 4, 5:
			from, to, flow := r.cell(), r.cell(), r.flow()
			what = fmt.Sprintf("handover flow %d %d->%d", flow, from, to)
			want, got = m.handover(from, to, flow), s.Handover(from, to, flow)
		case 6:
			cell, flow := r.cell(), r.flow()
			what = fmt.Sprintf("close cell %d flow %d", cell, flow)
			m.close(cell, flow)
			s.CloseSession(cell, flow)
		case 7:
			what = "begin drain"
			if r.next() == 0 {
				m.draining = true
				s.BeginDrain()
			}
		}
		if errClass(want) != errClass(got) {
			t.Fatalf("step %d (%s): error %v, want class %q", step, what, got, errClass(want))
		}
		for cell := 0; cell < refCells; cell++ {
			for flow := 1; flow <= refFlows; flow++ {
				wa, werr := m.assignment(cell, flow)
				ga, gerr := s.AssignmentErr(cell, flow)
				if errClass(werr) != errClass(gerr) || wa != ga {
					t.Fatalf("step %d (%s): poll cell %d flow %d = %+v, %v; want %+v, %s",
						step, what, cell, flow, ga, gerr, wa, errClass(werr))
				}
			}
		}
	}
}

// compareRound checks a round's published assignments, sequence and
// failed flows.
func compareRound(t *testing.T, step int, what string, want, got StatsResponse) {
	t.Helper()
	if want.BAISeq != got.BAISeq || !slices.Equal(want.Assignments, got.Assignments) ||
		!slices.EqualFunc(want.Failed, got.Failed, func(a, b EnforcementFailure) bool { return a.FlowID == b.FlowID }) {
		t.Fatalf("step %d (%s): round %+v, want %+v", step, what, got, want)
	}
}

// TestServerMatchesReference drives the server and the model through
// seeded random op sequences.
func TestServerMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := sim.NewRNG(seed)
		data := make([]byte, 200+rng.Intn(800))
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runServerOps(t, data) })
	}
}

// FuzzServerOps is the same comparison over arbitrary op bytes.
func FuzzServerOps(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x01, 0x7e, 0x00})
	f.Add([]byte{0x01, 0x00, 0x01, 0x02, 0x01, 0x00, 0x04, 0x01, 0x02, 0x03, 0x02, 0x02, 0x05, 0x06, 0x00, 0x07, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		runServerOps(t, data)
	})
}
