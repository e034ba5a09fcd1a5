package oneapi

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/obs"
)

// PCEF is the enforcement hook an in-process caller hands a BAI round:
// the policy-and-charging enforcement pathway that installs each video
// flow's GBR at the eNodeB (the Continuous GBR Updater in the testbed
// MAC). A round's GBRs go down in one grouped call. installs is the
// server's buffer, good for the duration of the call only. The result
// slice must be parallel to installs (nil error = installed); a nil
// slice means every install succeeded. The server folds the results per
// flow: failed downgrades are published to polls, failed upgrades keep
// the previous assignment. Over HTTP there is no hook: the eNodeB
// installs what the stats response carries.
type PCEF func(installs []GBRInstall) []error

// GBRInstall is one entry of a PCEF install: the GBR a BAI round wants
// enforced for one bearer.
type GBRInstall struct {
	FlowID int     `json:"flow_id"`
	GBRBps float64 `json:"gbr_bps"`
}

type cellState struct {
	// mu serializes operations on this cell only: BAI rounds, session
	// lifecycle, polls. Distinct cells never contend on it.
	mu sync.Mutex

	id         int
	controller *core.Controller
	// rec is a per-cell copy of the server's recorder, made at cell
	// creation (and re-pointed by SetRecorder) so the hot paths never
	// read server-global state.
	rec *obs.Recorder

	// baiSeq counts the cell's BAI rounds. What a poll answers is kept
	// on the flow's row in the controller (Controller.Installed): the
	// flow's current assignment and the BAI sequence at which it was
	// last successfully installed. The sequence lags baiSeq for flows
	// whose PCEF installs failed, which is how polling plugins detect
	// their own staleness.
	baiSeq int64
	// lastReportSeq is the highest accepted StatsReport.Seq (0 before
	// the first sequenced report).
	lastReportSeq int64
	// queue holds sessions the admission predicate refused, in arrival
	// order. It is a plain slice FIFO — promotion pops the head, never
	// iterates a map — so promotion order is deterministic. Bounded by
	// Config.AdmissionQueue.
	queue []SessionRequest

	// installs is the batch handed to the PCEF (installGBRs), reused
	// from round to round under mu.
	installs []GBRInstall
	// reserved marks a cell an in-process driver holds (Hold): it is
	// never idle, so the server never drops it.
	reserved bool
	// dropped marks a cell the server has removed from its index (drop).
	dropped bool
}

// idle reports whether the cell is one the server drops: not reserved,
// with no session and no queued open. The caller holds c.mu.
func (c *cellState) idle() bool {
	return !c.reserved && c.controller.NumFlows() == 0 && len(c.queue) == 0
}

// Server is the OneAPI server: one FLARE controller per managed cell
// ("a single OneAPI server can manage multiple BSs, though the bitrates
// are calculated independently for each network cell"). It is safe for
// concurrent use — the HTTP binding serves it from multiple goroutines.
// One index maps cell IDs to their state; each cell's operations take
// that cell's own lock, so work on distinct cells proceeds in parallel.
// A served cell is held while it has a session or a queued open: an
// open creates it, the operation that leaves it with neither drops it,
// and every other operation only looks it up (ErrUnknownCell). A cell
// reserved with Hold is held from then on, empty or not.
type Server struct {
	cfg  core.Config
	pcrf *PCRF

	// mu guards cells and the creation-time defaults below (the values
	// copied into each new cellState), and orders Set* re-pointing
	// against cell creation and drop. Per-cell work holds it only to
	// look its cell up.
	mu    sync.RWMutex
	cells map[int]*cellState
	// rec is the telemetry recorder (nil = disabled) shared by every
	// per-cell controller this server creates.
	rec *obs.Recorder
	// wallClock, when non-nil, replaces time.Now as each controller's
	// solver-latency clock (see core.Controller.SetWallClock). Tests
	// fake it; production leaves it nil.
	wallClock func() time.Time

	// draining refuses new sessions and new BAI rounds once a graceful
	// shutdown has begun; in-flight rounds complete (see BeginDrain).
	draining atomic.Bool
	// inflight counts BAI rounds currently executing; the graceful
	// drain waits for it to reach zero.
	inflight atomic.Int64
}

// NewServer builds a OneAPI server that creates controllers with cfg,
// normalized once (core.Config.Normalized): the Retry-After hint and the
// controllers read the same BAI.
func NewServer(cfg core.Config, pcrf *PCRF) *Server {
	if pcrf == nil {
		pcrf = NewPCRF()
	}
	return &Server{cfg: cfg.Normalized(), pcrf: pcrf, cells: make(map[int]*cellState)}
}

// NewServerSharded is NewServer; the shard count is ignored.
//
// Deprecated: the server has one cell index. Use NewServer.
func NewServerSharded(cfg core.Config, pcrf *PCRF, _ int) *Server { return NewServer(cfg, pcrf) }

// lookup finds an existing cell (nil when the server has never seen it).
func (s *Server) lookup(cellID int) *cellState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cells[cellID]
}

// cell returns the cell's state, creating it when the server does not
// hold it.
func (s *Server) cell(cellID int) *cellState {
	if c := s.lookup(cellID); c != nil {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.cells[cellID]; ok {
		return c
	}
	c := &cellState{
		id:         cellID,
		controller: core.NewController(s.cfg),
		rec:        s.rec,
	}
	c.controller.SetRecorder(s.rec, cellID)
	if s.wallClock != nil {
		c.controller.SetWallClock(s.wallClock)
	}
	s.cells[cellID] = c
	return c
}

// lockCell returns cellID's state locked, or nil when the server does
// not hold the cell (with create, it creates it). A cell dropped between
// the lookup and the lock is looked up again.
func (s *Server) lockCell(cellID int, create bool) *cellState {
	for {
		var c *cellState
		if create {
			c = s.cell(cellID)
		} else if c = s.lookup(cellID); c == nil {
			return nil
		}
		c.mu.Lock()
		if !c.dropped {
			return c
		}
		c.mu.Unlock()
	}
}

// unlockCell releases a cell locked by lockCell, dropping it when the
// operation left it idle.
func (s *Server) unlockCell(c *cellState) {
	idle := c.idle()
	c.mu.Unlock()
	if idle {
		s.drop(c)
	}
}

// drop removes c from the index if it is still idle. The caller holds
// neither lock: the index lock ranks above the cell's.
func (s *Server) drop(c *cellState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.dropped && c.idle() {
		c.dropped = true
		delete(s.cells, c.id)
	}
}

// PCRF exposes the server's flow registry.
func (s *Server) PCRF() *PCRF { return s.pcrf }

// SetRecorder attaches a telemetry recorder (nil disables). Controllers
// created afterwards inherit it; controllers that already exist are
// re-pointed too, so attach order does not matter.
func (s *Server) SetRecorder(rec *obs.Recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rec = rec
	for _, c := range s.cells {
		c.mu.Lock()
		c.rec = rec
		c.controller.SetRecorder(rec, c.id)
		c.mu.Unlock()
	}
}

// SetWallClock injects the wall-clock source controllers use to time
// BAI solves (nil restores time.Now). Like SetRecorder, it re-points
// controllers that already exist, so attach order does not matter.
func (s *Server) SetWallClock(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wallClock = now
	for _, c := range s.cells {
		c.mu.Lock()
		c.controller.SetWallClock(now)
		c.mu.Unlock()
	}
}

// BeginDrain puts the server into drain mode: new sessions and new BAI
// rounds are refused with ErrDraining while rounds already executing
// run to completion — no BAI is ever dropped mid-install. Polls and
// closes keep working so clients can read final state on their way out.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// DrainWait blocks until every in-flight BAI round has completed, or
// ctx-style deadline d elapses (d <= 0 waits up to a second). It
// returns the number of rounds still in flight (0 on a clean drain).
// Callers normally BeginDrain first.
func (s *Server) DrainWait(d time.Duration) int {
	if d <= 0 {
		d = time.Second
	}
	deadline := time.Now().Add(d)
	for {
		inflight := s.inflight.Load()
		if inflight == 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return int(inflight)
		}
		time.Sleep(time.Millisecond)
	}
}

// Open registers a video flow in a cell. created is false when it
// matched an open session idempotently (the HTTP binding's 200 vs 201):
// a client retrying or re-opening after its own restart must not be
// rejected, while a different ladder is ErrSessionConflict. The session
// keeps req.LadderBps without copying it (see SessionRequest).
func (s *Server) Open(cellID int, req SessionRequest) (created bool, err error) {
	if err := s.checkOpen(req.FlowID, has.Ladder(req.LadderBps), req.Preferences); err != nil {
		return false, err
	}
	c := s.lockCell(cellID, true)
	defer s.unlockCell(c)
	return s.openLocked(c, req)
}

// Hold reserves a cell for an in-process driver whose sessions open as
// their flows arrive: the cell is created if need be, its flow table
// gets room for n more sessions, and the server never drops it, so its
// controller and the buffers its rounds have grown outlive the moments
// it has no session. Opens, closes and rounds on it are those of a
// served cell.
func (s *Server) Hold(cellID, n int) {
	c := s.lockCell(cellID, true)
	c.reserved = true
	c.controller.Grow(n)
	c.mu.Unlock()
}

// checkOpen is the refusals an open meets before it touches a cell: an
// invalid ladder, one longer than the controller registers or whose
// floor rung no cell can carry (core.PeakCellRateBps), preferences
// beyond their bounds, then a draining server. The ladder is checked
// ahead of the admission predicate, which prices the candidate by its
// floor rung and so assumes a non-empty ladder, and would otherwise
// queue a session that its promotion could never register.
func (s *Server) checkOpen(flowID int, ladder has.Ladder, prefs core.Preferences) error {
	if err := ladder.Validate(); err != nil {
		return fmt.Errorf("oneapi: open session flow %d: %w", flowID, err)
	}
	if len(ladder) > core.MaxLevels {
		return fmt.Errorf("oneapi: open session flow %d: ladder of %d levels, more than %d", flowID, len(ladder), core.MaxLevels)
	}
	if ladder[0] > core.PeakCellRateBps {
		return fmt.Errorf("oneapi: open session flow %d: floor rung %g bps is above the peak cell rate (%g bps)", flowID, ladder[0], core.PeakCellRateBps)
	}
	if err := prefs.Validate(); err != nil {
		return fmt.Errorf("oneapi: open session flow %d: %w", flowID, err)
	}
	if s.draining.Load() {
		return fmt.Errorf("oneapi: open session flow %d: %w", flowID, ErrDraining)
	}
	return nil
}

// openLocked registers req's session in c, whose lock the caller holds
// and whose refusals before the lock (checkOpen) it has already passed.
//
// Without admission control the flow table is searched once, by
// Register, which also reports a flow that is already registered. The
// admission predicate must not price a flow that is, so under it the
// table is searched first.
func (s *Server) openLocked(c *cellState, req SessionRequest) (created bool, err error) {
	ladder := has.Ladder(req.LadderBps)
	if s.cfg.AdmissionControl && !c.controller.Registered(req.FlowID) && !c.controller.CanAdmit(ladder) {
		queued := s.enqueueLocked(c, req)
		c.rec.Emit(obs.Reject(int32(c.id), int32(req.FlowID), queued))
		return false, fmt.Errorf("oneapi: open session flow %d: %w", req.FlowID, ErrAdmissionRejected)
	}
	err = c.controller.Register(req.FlowID, ladder, req.Preferences)
	if errors.Is(err, core.ErrRegistered) {
		// The flow is already registered: idempotent when the ladder
		// matches (preferences are simply refreshed), conflict when it
		// does not.
		snap, _ := c.controller.Snapshot(req.FlowID) // cannot miss: registered, and c.mu is held
		if !slices.Equal(snap.Ladder, ladder) {
			return false, fmt.Errorf("oneapi: open session flow %d: %w", req.FlowID, ErrSessionConflict)
		}
		if err := c.controller.SetPreferences(req.FlowID, req.Preferences); err != nil {
			return false, fmt.Errorf("oneapi: open session: %w", err)
		}
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("oneapi: open session: %w", err)
	}
	s.dequeueLocked(c, req.FlowID)
	c.rec.Emit(obs.SessionOpen(int32(c.id), int32(req.FlowID)))
	if s.cfg.AdmissionControl {
		c.rec.Emit(obs.Admit(int32(c.id), int32(req.FlowID), false))
	}
	return true, nil
}

// queueCap resolves Config.AdmissionQueue: 0 means the default depth,
// negative disables queueing.
func (s *Server) queueCap() int {
	if s.cfg.AdmissionQueue == 0 {
		return 8
	}
	return max(s.cfg.AdmissionQueue, 0)
}

// enqueueLocked parks a rejected session on the cell's wait queue,
// reporting whether it is (still) queued. A repeat open for a flow
// already waiting refreshes its request in place rather than
// double-queueing it.
func (s *Server) enqueueLocked(c *cellState, req SessionRequest) bool {
	for i := range c.queue {
		if c.queue[i].FlowID == req.FlowID {
			c.queue[i] = req
			return true
		}
	}
	if len(c.queue) >= s.queueCap() {
		return false
	}
	c.queue = append(c.queue, req)
	return true
}

// dequeueLocked drops a flow from the wait queue (it was admitted by a
// direct retry, or its session closed before promotion).
func (s *Server) dequeueLocked(c *cellState, flowID int) {
	for i := range c.queue {
		if c.queue[i].FlowID == flowID {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}

// promoteLocked admits queued sessions head-first while the admission
// predicate holds. Called whenever capacity may have freed: after a
// session close, after a handover departure, and after each BAI (radio
// costs shift the floor demand). Registration failures drop the entry —
// the client will retry its open and get a fresh verdict.
func (s *Server) promoteLocked(cellID int, c *cellState) {
	if !s.cfg.AdmissionControl {
		return
	}
	for len(c.queue) > 0 {
		req := c.queue[0]
		if !c.controller.CanAdmit(has.Ladder(req.LadderBps)) {
			return
		}
		c.queue = c.queue[1:]
		if err := c.controller.Register(req.FlowID, has.Ladder(req.LadderBps), req.Preferences); err != nil {
			continue
		}
		c.rec.Emit(obs.SessionOpen(int32(cellID), int32(req.FlowID)))
		c.rec.Emit(obs.QueuePromote(int32(cellID), int32(req.FlowID), int32(len(c.queue))))
		c.rec.Emit(obs.Admit(int32(cellID), int32(req.FlowID), true))
	}
}

// CloseSession removes a video flow.
func (s *Server) CloseSession(cellID, flowID int) {
	c := s.lockCell(cellID, false)
	if c == nil {
		return
	}
	defer s.unlockCell(c)
	c.controller.Unregister(flowID)
	s.dequeueLocked(c, flowID)
	c.rec.Emit(obs.SessionClose(int32(cellID), int32(flowID)))
	s.promoteLocked(cellID, c)
}

// Handover moves a live video session between cells — a state transfer
// from one cell's controller to the other's, not a close+reopen: the
// flow keeps its session ID, its ladder and preferences move with it,
// and its current assignment is carried so polls keep answering during
// the gap before the target cell's first BAI. The assignment's age
// (CellSeq−BAISeq) is preserved across the transfer, so staleness
// detectors keep ageing it honestly; the bitrate itself is
// re-optimised at the target's next BAI, since the source cell's
// radio-cost history is meaningless there.
//
// Handover bypasses the admission predicate deliberately: in cellular
// admission control, handover calls outrank new calls (dropping a
// session in motion is worse than refusing a new one). Capacity the
// flow frees in the source cell promotes its wait queue immediately.
func (s *Server) Handover(fromCell, toCell, flowID int) error {
	if fromCell == toCell {
		return fmt.Errorf("oneapi: handover: flow %d is already in cell %d", flowID, toCell)
	}
	var from, to *cellState
	for {
		if from = s.lookup(fromCell); from == nil {
			return fmt.Errorf("oneapi: handover flow %d from cell %d: %w", flowID, fromCell, ErrUnknownCell)
		}
		to = s.cell(toCell)
		// Both cells are locked for the transfer; global cell-ID order
		// keeps concurrent handovers deadlock-free.
		first, second := from, to
		if toCell < fromCell {
			first, second = to, from
		}
		first.mu.Lock()
		// Equal rank by design: the cell-ID order above rules out a
		// cycle (internal/lint's lockExceptions holds this one
		// acquisition).
		second.mu.Lock()
		if !from.dropped && !to.dropped {
			break
		}
		second.mu.Unlock()
		first.mu.Unlock()
		s.drop(to) // a target created for nothing, if the source is gone
	}
	err := s.handoverLocked(from, to, flowID)
	// Both cells are released before either is dropped (see drop).
	fromIdle, toIdle := from.idle(), to.idle()
	from.mu.Unlock()
	to.mu.Unlock()
	if fromIdle {
		s.drop(from)
	}
	if toIdle {
		s.drop(to)
	}
	return err
}

// handoverLocked moves flowID's session from one cell to the other,
// whose locks the caller holds.
func (s *Server) handoverLocked(from, to *cellState, flowID int) error {
	if !from.controller.Registered(flowID) {
		return fmt.Errorf("oneapi: handover flow %d from cell %d: %w", flowID, from.id, ErrUnknownSession)
	}
	in, seq, installed := from.controller.Installed(flowID)
	if err := from.controller.MoveTo(to.controller, flowID); err != nil {
		return fmt.Errorf("oneapi: handover: %w", err)
	}
	if installed {
		age := from.baiSeq - seq
		seq = to.baiSeq - age
		if seq < 0 {
			// The target cell is younger than the assignment's age:
			// clamp — the age signal saturates at the target's own
			// BAI count, which is every BAI the target can vouch for.
			seq = 0
		}
		to.controller.SetInstalled(flowID, in, seq)
	}
	s.dequeueLocked(from, flowID)
	s.promoteLocked(from.id, from)
	to.rec.Emit(obs.Handover(int32(from.id), int32(to.id), int32(flowID)))
	return nil
}

// SetPreferences updates a session's client preferences. Preferences
// beyond their bounds (core.Preferences.Validate) are refused first,
// then a cell the server does not hold (ErrUnknownCell) and a flow with
// no session there (ErrUnknownSession). Those two come back bare, so a
// driver whose flows wait for a session allocates nothing to hear it;
// the HTTP binding names the cell and flow (flowRefusal).
func (s *Server) SetPreferences(cellID, flowID int, prefs core.Preferences) error {
	if err := prefs.Validate(); err != nil {
		return fmt.Errorf("oneapi: preferences flow %d: %w", flowID, err)
	}
	c := s.lockCell(cellID, false)
	if c == nil {
		return ErrUnknownCell
	}
	defer c.mu.Unlock()
	if !c.controller.Registered(flowID) {
		// Asked first: the controller's refusal is an error of its own.
		return ErrUnknownSession
	}
	return c.controller.SetPreferences(flowID, prefs)
}

// RunBAIReport consumes one statistics report for a cell, runs the
// bitrate optimisation, installs GBRs through pcef, and returns the
// committed assignments, their BAI sequence and any per-flow enforcement
// failures in a response of its own. A nil pcef installs nothing: the
// caller enforces what the response carries, as the HTTP binding's
// eNodeB does. A report's NumDataFlows of -1 defers to the PCRF
// registry. Every flow's install is attempted; a failed one keeps its
// previous assignment, and the failures also come back as a
// *EnforceError — callers decide whether partial enforcement is fatal.
// It is RunBAIInto handed a fresh StatsResponse; see there for the
// errors.
func (s *Server) RunBAIReport(cellID int, report StatsReport, pcef PCEF) (StatsResponse, error) {
	var resp StatsResponse
	err := s.RunBAIInto(cellID, report, pcef, &resp)
	return resp, err
}

// RunBAIInto is the BAI round, written into resp: Assignments and Failed
// are overwritten in place when their arrays are large enough, so a
// caller that hands the same response to every round (the in-process
// simulator driver) allocates nothing for it, and one that hands a fresh
// one (RunBAIReport, the HTTP binding) owns what it gets — resp never
// aliases server or controller state. err is *EnforceError (with resp
// still valid, and sharing resp.Failed) on partial enforcement,
// ErrStaleReport for an out-of-order sequenced report, ErrDraining
// during a graceful shutdown, ErrUnknownCell (unwrapped, so that it
// allocates nothing) for a cell the server does not hold, or another
// error when the optimisation itself failed; in the last four cases no
// state changed and resp is empty.
//
// The round's installs go down in one grouped PCEF call — one install
// sequence bump, one round trip — and the per-flow results are folded
// in assignment order.
func (s *Server) RunBAIInto(cellID int, report StatsReport, pcef PCEF, resp *StatsResponse) error {
	*resp = StatsResponse{Assignments: resp.Assignments[:0], Failed: resp.Failed[:0]}
	nData := report.NumDataFlows
	if nData < 0 {
		nData = s.pcrf.NumDataFlows(cellID)
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.draining.Load() {
		return fmt.Errorf("oneapi: cell %d: %w", cellID, ErrDraining)
	}
	c := s.lockCell(cellID, false)
	if c == nil {
		return ErrUnknownCell
	}
	defer s.unlockCell(c)
	if report.Seq > 0 && report.Seq <= c.lastReportSeq {
		c.rec.Emit(obs.StaleReport(int32(cellID), report.Seq))
		return fmt.Errorf("oneapi: cell %d: report seq %d <= last accepted %d: %w",
			cellID, report.Seq, c.lastReportSeq, ErrStaleReport)
	}
	// assignments is the controller's buffer, good until its next round:
	// everything kept past this call is copied out of it below.
	assignments, err := c.controller.RunBAI(report.Flows, nData)
	if err != nil {
		return fmt.Errorf("oneapi: cell %d: %w", cellID, err)
	}
	if report.Seq > 0 {
		c.lastReportSeq = report.Seq
	}
	c.baiSeq++

	// Enforcement: one grouped PCEF call; installErrs[i] is flow i's
	// outcome.
	installErrs := c.installGBRs(pcef, assignments)

	// Never nil on success, even with no flows: the wire says [], not null.
	// Sized, like the controller's buffers, for the cell's flow table.
	if resp.Assignments == nil || cap(resp.Assignments) < len(assignments) {
		resp.Assignments = make([]core.Assignment, 0, cap(assignments))
	}
	for i, a := range assignments {
		if installErrs != nil && installErrs[i] != nil {
			// All-installed-or-previous-kept per flow: the flow's
			// previous assignment and install sequence survive, so
			// polling plugins see its age grow. Downgrades are the
			// exception: under overload a failed install must not
			// leave the flow advertising a higher rate than the
			// optimiser just chose — the stale high assignment is
			// what starves the cell — so the lower assignment is
			// published to polls while its install sequence keeps
			// lagging (the staleness signal stays intact).
			resp.Failed = append(resp.Failed, EnforcementFailure{FlowID: a.FlowID, Reason: installErrs[i].Error()})
			c.rec.Emit(obs.InstallFail(int32(cellID), int32(a.FlowID), c.baiSeq, int32(a.Level), a.RateBps))
			if prev, seq, ok := c.controller.Installed(a.FlowID); ok && a.RateBps < prev.RateBps {
				c.controller.SetInstalled(a.FlowID, a, seq)
			}
			continue
		}
		c.controller.SetInstalled(a.FlowID, a, c.baiSeq)
		resp.Assignments = append(resp.Assignments, a)
		c.rec.Emit(obs.Install(int32(cellID), int32(a.FlowID), c.baiSeq, int32(a.Level), a.RateBps))
	}
	s.promoteLocked(cellID, c)
	resp.BAISeq = c.baiSeq
	if len(resp.Failed) > 0 {
		return &EnforceError{BAISeq: c.baiSeq, Failed: resp.Failed}
	}
	return nil
}

// installGBRs pushes one BAI round's assignments through the PCEF in
// one grouped call and returns the per-assignment outcomes (nil slice
// when pcef is nil or every install succeeded). A PCEF returning the
// wrong result count breaks its contract; every install is then treated
// as failed so no flow silently advances.
func (c *cellState) installGBRs(pcef PCEF, assignments []core.Assignment) []error {
	if pcef == nil || len(assignments) == 0 {
		return nil
	}
	n := len(assignments)
	if cap(c.installs) < n {
		c.installs = make([]GBRInstall, cap(assignments))
	}
	installs := c.installs[:n]
	for i, a := range assignments {
		installs[i] = GBRInstall{FlowID: a.FlowID, GBRBps: a.RateBps}
	}
	errs := pcef(installs)
	if errs != nil && len(errs) != n {
		bad := fmt.Errorf("oneapi: batch pcef returned %d results for %d installs", len(errs), n)
		errs = make([]error, n)
		for i := range errs {
			errs[i] = bad
		}
	}
	return errs
}

// AssignmentErr returns a flow's most recent assignment, for polling
// plugins, or why there is none: ErrUnknownCell, ErrUnknownSession (the
// flow has no live session — after a server restart this tells the
// client to re-open), or ErrNoAssignment (the session is live but no
// BAI has assigned it yet). The three come back bare, as SetPreferences's
// do.
func (s *Server) AssignmentErr(cellID, flowID int) (AssignmentResponse, error) {
	c := s.lockCell(cellID, false)
	if c == nil {
		return AssignmentResponse{}, ErrUnknownCell
	}
	defer c.mu.Unlock()
	a, seq, ok := c.controller.Installed(flowID)
	if !ok {
		if !c.controller.Registered(flowID) {
			return AssignmentResponse{}, ErrUnknownSession
		}
		return AssignmentResponse{}, ErrNoAssignment
	}
	return AssignmentResponse{
		FlowID:  a.FlowID,
		RateBps: a.RateBps,
		Level:   a.Level,
		BAISeq:  seq,
		CellSeq: c.baiSeq,
	}, nil
}

// LastSolve returns how many BAIs a cell's controller has solved and
// the wall time of the most recent solve (core.Controller.LastSolve),
// or ErrUnknownCell. The server keeps no history of solve times; a
// caller that wants one keeps what it reads after each round.
func (s *Server) LastSolve(cellID int) (n int64, d time.Duration, err error) {
	c := s.lockCell(cellID, false)
	if c == nil {
		return 0, 0, ErrUnknownCell
	}
	defer c.mu.Unlock()
	n, d = c.controller.LastSolve()
	return n, d, nil
}
