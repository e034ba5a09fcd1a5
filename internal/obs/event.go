package obs

import (
	"fmt"
	"math"
	"strconv"
)

// SchemaVersion identifies the trace wire format. It appears in the
// header record every JSONL sink writes first, so readers (flaretrace,
// analyze) can reject traces from incompatible versions instead of
// silently misinterpreting fields. Bump on any field rename or semantic
// change; adding new optional fields is backward compatible and does
// not require a bump.
//
// Version 2 writes a non-finite float field (an infeasible solve's -Inf
// objective) as one of the JSON strings "NaN", "+Inf" and "-Inf";
// version 1 wrote it as a bare token no JSON parser accepts. Every other
// byte is unchanged, so a version-1 trace still reads (readableSchemas).
const SchemaVersion = "flare-trace/2"

// readableSchemas are the schema versions ReadJSONL accepts: this
// build's, and the version-1 traces it is a superset of.
var readableSchemas = [...]string{SchemaVersion, "flare-trace/1"}

// Kind enumerates the event taxonomy: every decision point of the
// FLARE coordination loop (and the engine around it) that operators
// need to reconstruct "why did this flow end up here".
type Kind uint8

// Event kinds. The comments name the layer that emits each kind.
const (
	// KindNone is the zero Kind; never emitted.
	KindNone Kind = iota

	// KindBAISolve is one bitrate-assignment solve (core.Controller):
	// N = video flows in the instance, Value = Eq. 2 objective,
	// DurNs = solver wall time, Seq = controller BAI ordinal.
	KindBAISolve
	// KindClamp is one flow's Algorithm-1 decision (core.Controller):
	// Reco = optimiser-recommended level, Level = granted level,
	// Prev = previous level (L_u), Streak/Need = up-counter state,
	// Bytes/RBs = the b_u/n_u report inputs, Bps = granted bitrate.
	KindClamp
	// KindInstall is a successful PCEF GBR install (oneapi.Server):
	// Bps = installed GBR, Seq = BAI sequence.
	KindInstall
	// KindInstallFail is a failed PCEF install: the flow keeps its
	// previous assignment (oneapi.Server). Seq = BAI sequence.
	KindInstallFail
	// KindSessionOpen is a session registration (oneapi.Server);
	// N = 1 for a newly created session, 0 for an idempotent re-open.
	KindSessionOpen
	// KindSessionClose is a session teardown (oneapi.Server).
	KindSessionClose

	// KindReportLost is a statistics report lost upstream — the BAI for
	// that interval never ran (cellsim driver).
	KindReportLost
	// KindPollLost is an assignment poll lost downstream; it feeds the
	// plugin's fallback detector (cellsim driver). Streak = consecutive
	// failed polls after this one.
	KindPollLost
	// KindStale is a poll that answered with an already-seen BAI
	// sequence — the assignment is ageing (cellsim driver / client).
	// Seq = the repeated sequence, Streak = consecutive stale polls.
	KindStale
	// KindDeliver is a fresh assignment reaching the plugin (cellsim
	// driver): Bps = assigned bitrate, Seq = its BAI sequence.
	KindDeliver
	// KindFallback is a plugin degrading to its local ABR (internal/abr
	// via the driver): Reason says which detector fired.
	KindFallback
	// KindRecover is a plugin rejoining coordination after fallback:
	// Seq = the fresh sequence that restored it.
	KindRecover

	// KindFlowStart is a video session starting playback-side
	// (cellsim engine).
	KindFlowStart
	// KindFlowDepart is an early session departure (cellsim engine).
	KindFlowDepart
	// KindStallStart is a playback buffer running dry mid-session
	// (has.Player via the engine).
	KindStallStart
	// KindStallEnd is playback resuming after a stall; Value = the
	// stall's length in seconds (has.Player via the engine).
	KindStallEnd

	// KindFault is a fault-injector decision other than pass
	// (internal/faults): Site = which exchange, Outcome = what happened.
	KindFault
	// KindFastForward is a quiescence jump of the simulation kernel
	// (cellsim engine): TTI = jump origin, To = landing TTI.
	KindFastForward

	// KindRetry is an HTTP client retry attempt (oneapi.Client).
	KindRetry
	// KindReopen is an automatic session re-open after the server lost
	// its state (oneapi.Client).
	KindReopen
	// KindClientFail is an HTTP client request failing after
	// exhausting retries (oneapi.Client).
	KindClientFail

	// KindAdmit is a session passing the admission predicate
	// (oneapi.Server); N = 1 when promoted from the wait queue.
	KindAdmit
	// KindReject is a session refused by the admission predicate
	// (oneapi.Server); N = 1 when parked on the wait queue, 0 when
	// turned away outright (queue full or disabled).
	KindReject
	// KindQueuePromote is a queued session being admitted after
	// capacity freed (oneapi.Server); Streak = sessions still waiting.
	KindQueuePromote
	// KindDowngrade is the overload ladder shaving one more step off
	// every flow's ceiling (core.Controller): Level = new shed depth,
	// Value = the video share that triggered it, Seq = BAI sequence.
	KindDowngrade
	// KindRestore is the overload ladder giving one step back after the
	// hysteresis hold (core.Controller): Level = remaining shed depth,
	// Value = the video share at release, Seq = BAI sequence.
	KindRestore

	// KindHandover is a live session moving between cells as one
	// shard-to-shard state transfer (oneapi.Server): Cell = source
	// cell, To = destination cell, Flow = the session that moved.
	KindHandover

	kindCount // sentinel; keep last
)

var kindNames = [...]string{
	KindNone:         "none",
	KindBAISolve:     "bai_solve",
	KindClamp:        "clamp",
	KindInstall:      "install",
	KindInstallFail:  "install_fail",
	KindSessionOpen:  "session_open",
	KindSessionClose: "session_close",
	KindReportLost:   "report_lost",
	KindPollLost:     "poll_lost",
	KindStale:        "stale",
	KindDeliver:      "deliver",
	KindFallback:     "fallback",
	KindRecover:      "recover",
	KindFlowStart:    "flow_start",
	KindFlowDepart:   "flow_depart",
	KindStallStart:   "stall_start",
	KindStallEnd:     "stall_end",
	KindFault:        "fault",
	KindFastForward:  "fast_forward",
	KindRetry:        "retry",
	KindReopen:       "reopen",
	KindClientFail:   "client_fail",
	KindAdmit:        "admit",
	KindReject:       "reject",
	KindQueuePromote: "queue_promote",
	KindDowngrade:    "downgrade",
	KindRestore:      "restore",
	KindHandover:     "handover",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindFromString resolves a wire name back to a Kind; KindNone for
// unknown names (forward compatibility: newer traces may carry kinds an
// older flaretrace does not know, which it must skip, not reject).
func KindFromString(s string) Kind {
	for k, name := range kindNames {
		if name == s && k != 0 {
			return Kind(k)
		}
	}
	return KindNone
}

// Site locates a fault-injector decision in the control plane.
type Site uint8

// Fault sites.
const (
	SiteNone Site = iota
	// SiteStats is the eNodeB statistics-report leg.
	SiteStats
	// SitePoll is the plugin assignment-poll leg.
	SitePoll
	// SiteHTTP is the wire-level injector (RoundTripper / Middleware).
	SiteHTTP
)

// String implements fmt.Stringer.
func (s Site) String() string {
	switch s {
	case SiteNone:
		return ""
	case SiteStats:
		return "stats"
	case SitePoll:
		return "poll"
	case SiteHTTP:
		return "http"
	default:
		return fmt.Sprintf("Site(%d)", int(s))
	}
}

// Reason says which detector triggered a fallback transition.
type Reason uint8

// Fallback reasons.
const (
	ReasonNone Reason = iota
	// ReasonPolls is K consecutive failed polls.
	ReasonPolls
	// ReasonStale is an assignment M BAIs stale.
	ReasonStale
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return ""
	case ReasonPolls:
		return "polls"
	case ReasonStale:
		return "stale"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Event is one telemetry record. It is a flat, fixed-size value — no
// pointers, no strings — so the flight-recorder ring stores events by
// value and the hot path never heap-allocates: call sites build the
// Event on the stack and Recorder.Emit copies it.
//
// Field meaning is kind-specific (see the Kind constants); unused
// fields stay zero and are omitted from the JSONL encoding.
type Event struct {
	// TTI is the simulated time in TTIs (1 ms each). 0 in wall-clock
	// contexts (live servers) where Wall is set instead.
	TTI int64
	// Wall is the wall-clock unix time in nanoseconds; 0 in simulations.
	Wall int64
	// Kind is the event type.
	Kind Kind
	// Cell is the cell ID.
	Cell int32
	// Flow is the flow (bearer) ID; -1 for cell-scoped events.
	Flow int32
	// Seq is the BAI sequence where relevant.
	Seq int64
	// Level / Prev / Reco are ladder indices (granted, previous,
	// recommended).
	Level, Prev, Reco int32
	// Streak and Need are Algorithm-1 up-counter state, or detector
	// counters for poll/stale events.
	Streak, Need int32
	// Bytes and RBs are the b_u / n_u report inputs.
	Bytes, RBs int64
	// Bps is a bitrate (assigned, installed, delivered).
	Bps float64
	// Value is a kind-specific float (objective, stall seconds).
	Value float64
	// DurNs is a wall-clock duration in nanoseconds (solver time).
	DurNs int64
	// To is a landing TTI (fast-forward jumps).
	To int64
	// Site locates fault events.
	Site Site
	// Outcome is the fault outcome ordinal (mirrors faults.Outcome).
	Outcome uint8
	// Reason is the fallback trigger.
	Reason Reason
}

// AppendJSON appends the event's JSONL encoding (one line, no trailing
// newline) to dst and returns the extended slice. It is hand-rolled —
// no reflection, no intermediate maps — so a streaming sink writing
// through a reused buffer allocates only when the buffer grows.
func (e *Event) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"kind":"`...)
	dst = append(dst, e.Kind.String()...)
	dst = append(dst, '"')
	dst = appendInt(dst, ",\"tti\":", e.TTI, e.TTI != 0)
	dst = appendInt(dst, ",\"wall\":", e.Wall, e.Wall != 0)
	dst = appendInt(dst, ",\"cell\":", int64(e.Cell), true)
	dst = appendInt(dst, ",\"flow\":", int64(e.Flow), true)
	dst = appendInt(dst, ",\"seq\":", e.Seq, e.Seq != 0)
	dst = appendInt(dst, ",\"level\":", int64(e.Level), e.Level != 0)
	dst = appendInt(dst, ",\"prev\":", int64(e.Prev), e.Prev != 0)
	dst = appendInt(dst, ",\"reco\":", int64(e.Reco), e.Reco != 0)
	dst = appendInt(dst, ",\"streak\":", int64(e.Streak), e.Streak != 0)
	dst = appendInt(dst, ",\"need\":", int64(e.Need), e.Need != 0)
	dst = appendInt(dst, ",\"bytes\":", e.Bytes, e.Bytes != 0)
	dst = appendInt(dst, ",\"rbs\":", e.RBs, e.RBs != 0)
	dst = appendFloat(dst, ",\"bps\":", e.Bps)
	dst = appendFloat(dst, ",\"value\":", e.Value)
	dst = appendInt(dst, ",\"dur_ns\":", e.DurNs, e.DurNs != 0)
	dst = appendInt(dst, ",\"to\":", e.To, e.To != 0)
	if e.Site != SiteNone {
		dst = append(dst, ",\"site\":\""...)
		dst = append(dst, e.Site.String()...)
		dst = append(dst, '"')
	}
	dst = appendInt(dst, ",\"outcome\":", int64(e.Outcome), e.Outcome != 0)
	if e.Reason != ReasonNone {
		dst = append(dst, ",\"reason\":\""...)
		dst = append(dst, e.Reason.String()...)
		dst = append(dst, '"')
	}
	dst = append(dst, '}')
	return dst
}

func appendInt(dst []byte, key string, v int64, include bool) []byte {
	if !include {
		return dst
	}
	dst = append(dst, key...)
	return strconv.AppendInt(dst, v, 10)
}

// appendFloat writes a non-zero float field. JSON has no literal for
// the non-finite values, so they are written as strings, which
// wireFloat turns back into the same values.
func appendFloat(dst []byte, key string, v float64) []byte {
	if v == 0 {
		return dst
	}
	dst = append(dst, key...)
	switch {
	case math.IsNaN(v):
		return append(dst, `"NaN"`...)
	case math.IsInf(v, 1):
		return append(dst, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(dst, `"-Inf"`...)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// wireFloat decodes a float field: a JSON number, or one of the strings
// appendFloat writes for the non-finite values.
type wireFloat float64

// UnmarshalJSON implements json.Unmarshaler. The decoder has already
// checked that b is one well-formed JSON value.
func (f *wireFloat) UnmarshalJSON(b []byte) error {
	switch s := string(b); s {
	case `"NaN"`:
		*f = wireFloat(math.NaN())
	case `"+Inf"`:
		*f = wireFloat(math.Inf(1))
	case `"-Inf"`:
		*f = wireFloat(math.Inf(-1))
	case "null": // encoding/json's rule: null leaves the field as it is
	default:
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("obs: %s is not a number", s)
		}
		*f = wireFloat(v)
	}
	return nil
}

// wireEvent is the JSON-decoding mirror of Event (string enums).
// Encoding never goes through it — AppendJSON is the write path — but
// readers (flaretrace) get full stdlib-json convenience.
type wireEvent struct {
	Kind    string    `json:"kind"`
	TTI     int64     `json:"tti"`
	Wall    int64     `json:"wall"`
	Cell    int32     `json:"cell"`
	Flow    int32     `json:"flow"`
	Seq     int64     `json:"seq"`
	Level   int32     `json:"level"`
	Prev    int32     `json:"prev"`
	Reco    int32     `json:"reco"`
	Streak  int32     `json:"streak"`
	Need    int32     `json:"need"`
	Bytes   int64     `json:"bytes"`
	RBs     int64     `json:"rbs"`
	Bps     wireFloat `json:"bps"`
	Value   wireFloat `json:"value"`
	DurNs   int64     `json:"dur_ns"`
	To      int64     `json:"to"`
	Site    string    `json:"site"`
	Outcome uint8     `json:"outcome"`
	Reason  string    `json:"reason"`
}

func (w *wireEvent) event() Event {
	e := Event{
		TTI: w.TTI, Wall: w.Wall, Kind: KindFromString(w.Kind),
		Cell: w.Cell, Flow: w.Flow, Seq: w.Seq,
		Level: w.Level, Prev: w.Prev, Reco: w.Reco,
		Streak: w.Streak, Need: w.Need,
		Bytes: w.Bytes, RBs: w.RBs,
		Bps: float64(w.Bps), Value: float64(w.Value), DurNs: w.DurNs, To: w.To,
		Outcome: w.Outcome,
	}
	switch w.Site {
	case "stats":
		e.Site = SiteStats
	case "poll":
		e.Site = SitePoll
	case "http":
		e.Site = SiteHTTP
	}
	switch w.Reason {
	case "polls":
		e.Reason = ReasonPolls
	case "stale":
		e.Reason = ReasonStale
	}
	return e
}
