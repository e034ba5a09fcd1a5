package obs

// Typed event constructors. Every layer outside internal/obs builds
// its Events through these functions — never as composite literals —
// so the flare-trace schema has exactly one authoring site. The rule
// is mechanical law: internal/lint's TestObsDiscipline rejects an
// obs.Event{...} literal anywhere outside this package.
//
// Each constructor returns the Event by value: the caller's copy lives
// on its stack and Recorder.Emit copies it again into recorder-owned
// storage, so the zero-allocation contract of the disabled path (and
// the AllocsPerRun floors gating it) is untouched. None of these
// functions stamp a time — Emit does that from the recorder's NowTTI
// source or the wall clock, exactly as before.
//
// Parameter order follows the Event field order (identity, sequence,
// decision, accounting, rate) so call sites read like the schema.

// BAISolve records one bitrate-assignment solve (core.Controller):
// dataFlows is the PCRF's concurrent non-video count, totalRBs the
// Eq. 4 budget, objective the Eq. 2 value, durNs the solver wall time.
func BAISolve(cell int32, seq int64, dataFlows int32, totalRBs int64, objective float64, durNs int64) Event {
	return Event{Kind: KindBAISolve, Cell: cell, Flow: -1, Seq: seq,
		Need: dataFlows, RBs: totalRBs, Value: objective, DurNs: durNs}
}

// Clamp records one flow's Algorithm-1 decision (core.Controller):
// reco is the optimiser's level, level the granted one, prev L_u,
// streak/need the up-counter state, bytes/rbs the b_u/n_u report
// inputs, bps the granted bitrate.
func Clamp(cell, flow int32, seq int64, reco, level, prev, streak, need int32, bytes, rbs int64, bps float64) Event {
	return Event{Kind: KindClamp, Cell: cell, Flow: flow, Seq: seq,
		Reco: reco, Level: level, Prev: prev, Streak: streak, Need: need,
		Bytes: bytes, RBs: rbs, Bps: bps}
}

// Install records a successful PCEF GBR install (oneapi.Server).
func Install(cell, flow int32, seq int64, level int32, bps float64) Event {
	return Event{Kind: KindInstall, Cell: cell, Flow: flow, Seq: seq, Level: level, Bps: bps}
}

// InstallFail records a failed PCEF install; the flow keeps its
// previous assignment (oneapi.Server).
func InstallFail(cell, flow int32, seq int64, level int32, bps float64) Event {
	return Event{Kind: KindInstallFail, Cell: cell, Flow: flow, Seq: seq, Level: level, Bps: bps}
}

// SessionOpen records a session registration (oneapi.Server).
func SessionOpen(cell, flow int32) Event {
	return Event{Kind: KindSessionOpen, Cell: cell, Flow: flow}
}

// SessionClose records a session teardown (oneapi.Server).
func SessionClose(cell, flow int32) Event {
	return Event{Kind: KindSessionClose, Cell: cell, Flow: flow}
}

// StaleReport records a statistics report rejected for carrying an
// already-accepted sequence (oneapi.Server).
func StaleReport(cell int32, seq int64) Event {
	return Event{Kind: KindStale, Cell: cell, Flow: -1, Seq: seq}
}

// ReportLost records a statistics report lost upstream — that
// interval's BAI never ran (cellsim driver).
func ReportLost(cell int32) Event {
	return Event{Kind: KindReportLost, Cell: cell, Flow: -1, Site: SiteStats}
}

// PollLost records an assignment poll lost downstream (cellsim driver).
func PollLost(cell, flow int32) Event {
	return Event{Kind: KindPollLost, Cell: cell, Flow: flow, Site: SitePoll}
}

// Deliver records a fresh assignment reaching the plugin (cellsim
// driver).
func Deliver(cell, flow int32, seq int64, level int32, bps float64) Event {
	return Event{Kind: KindDeliver, Cell: cell, Flow: flow, Seq: seq, Level: level, Bps: bps}
}

// Fallback records a plugin degrading to its local ABR: reason says
// which detector fired, streak its count (cellsim driver).
func Fallback(cell, flow int32, reason Reason, streak int32) Event {
	return Event{Kind: KindFallback, Cell: cell, Flow: flow, Reason: reason, Streak: streak}
}

// Recovery records a plugin rejoining coordination after fallback
// (cellsim driver). Named Recovery, not Recover, to keep the builtin
// visible inside this package.
func Recovery(cell, flow int32, streak int32) Event {
	return Event{Kind: KindRecover, Cell: cell, Flow: flow, Streak: streak}
}

// FlowStart records a video session starting playback (cellsim engine).
func FlowStart(cell, flow int32) Event {
	return Event{Kind: KindFlowStart, Cell: cell, Flow: flow}
}

// FlowDepart records an early session departure (cellsim engine).
func FlowDepart(cell, flow int32) Event {
	return Event{Kind: KindFlowDepart, Cell: cell, Flow: flow}
}

// StallStart records a playback buffer running dry (cellsim engine).
func StallStart(cell, flow int32) Event {
	return Event{Kind: KindStallStart, Cell: cell, Flow: flow}
}

// StallEnd records playback resuming after a stall (cellsim engine).
func StallEnd(cell, flow int32) Event {
	return Event{Kind: KindStallEnd, Cell: cell, Flow: flow}
}

// Fault records a fault-injector decision other than pass, tagged with
// the control-plane site it struck (cellsim driver / live injector).
func Fault(cell int32, site Site, outcome uint8) Event {
	return Event{Kind: KindFault, Cell: cell, Flow: -1, Site: site, Outcome: outcome}
}

// FastForward records a quiescence jump of the simulation kernel from
// TTI from to TTI to (cellsim engine).
func FastForward(cell int32, from, to int64) Event {
	return Event{Kind: KindFastForward, Cell: cell, Flow: -1, TTI: from, To: to}
}

// Retry records HTTP retry attempt n (oneapi.Client).
func Retry(cell, flow int32, attempt int64) Event {
	return Event{Kind: KindRetry, Cell: cell, Flow: flow, Site: SiteHTTP, Seq: attempt}
}

// Reopen records an automatic session re-open after the server lost
// its state (oneapi.Client).
func Reopen(cell, flow int32) Event {
	return Event{Kind: KindReopen, Cell: cell, Flow: flow, Site: SiteHTTP}
}

// ClientFail records an HTTP request failing after exhausting retries
// (oneapi.Client).
func ClientFail(cell, flow int32) Event {
	return Event{Kind: KindClientFail, Cell: cell, Flow: flow, Site: SiteHTTP}
}

// Admit records a session passing the admission predicate
// (oneapi.Server); fromQueue marks a promotion rather than a
// first-contact admission.
func Admit(cell, flow int32, fromQueue bool) Event {
	e := Event{Kind: KindAdmit, Cell: cell, Flow: flow}
	if fromQueue {
		e.Need = 1
	}
	return e
}

// Reject records a session refused by the admission predicate
// (oneapi.Server); queued marks it parked on the wait queue rather
// than turned away outright.
func Reject(cell, flow int32, queued bool) Event {
	e := Event{Kind: KindReject, Cell: cell, Flow: flow}
	if queued {
		e.Need = 1
	}
	return e
}

// QueuePromote records a queued session being admitted after capacity
// freed (oneapi.Server); waiting is the queue depth left behind.
func QueuePromote(cell, flow int32, waiting int32) Event {
	return Event{Kind: KindQueuePromote, Cell: cell, Flow: flow, Streak: waiting}
}

// Downgrade records the overload ladder taking one more shed step
// (core.Controller): shed is the new depth, share the video RB share
// that triggered it.
func Downgrade(cell int32, seq int64, shed int32, share float64) Event {
	return Event{Kind: KindDowngrade, Cell: cell, Flow: -1, Seq: seq, Level: shed, Value: share}
}

// Restore records the overload ladder giving one shed step back after
// the hysteresis hold (core.Controller): shed is the remaining depth,
// share the video RB share at release.
func Restore(cell int32, seq int64, shed int32, share float64) Event {
	return Event{Kind: KindRestore, Cell: cell, Flow: -1, Seq: seq, Level: shed, Value: share}
}

// Handover records a live session moving from one cell to another as a
// state transfer (oneapi.Server).
func Handover(fromCell, toCell, flow int32) Event {
	return Event{Kind: KindHandover, Cell: fromCell, Flow: flow, To: int64(toCell)}
}
