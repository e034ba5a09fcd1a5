package oneapi

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// Sentinel errors the server and client surface for control-plane
// failure handling. Wrap-aware callers use errors.Is/As.
var (
	// ErrStaleReport rejects a statistics report whose sequence number
	// is not newer than the last accepted one for the cell — a delayed
	// or duplicated report must not rewind the BAI state.
	ErrStaleReport = errors.New("oneapi: stale or out-of-order stats report")

	// ErrUnknownSession marks a flow the server has no session for —
	// after a server restart this is the client's signal to re-open.
	ErrUnknownSession = errors.New("oneapi: unknown session")

	// ErrUnknownCell marks a cell the server does not hold: one it has
	// never seen, or one whose last session has gone.
	ErrUnknownCell = errors.New("oneapi: unknown cell")

	// ErrNoAssignment marks a live session that no BAI has assigned
	// yet; distinct from ErrUnknownSession so clients do not re-open
	// needlessly.
	ErrNoAssignment = errors.New("oneapi: no assignment yet")

	// ErrSessionConflict rejects an open for a flow ID that is already
	// registered with a *different* ladder; re-opening with identical
	// parameters is idempotent and succeeds.
	ErrSessionConflict = errors.New("oneapi: session exists with different parameters")

	// ErrAdmissionRejected refuses a new session the admission predicate
	// cannot fit: the cell's RB budget cannot hold every admitted flow's
	// floor level plus the candidate's. The HTTP binding maps it to 503
	// with a Retry-After hint; the session may have been parked on the
	// cell's wait queue for later promotion, so clients should retry
	// the open after the hint (not treat the flow as denied forever).
	ErrAdmissionRejected = errors.New("oneapi: session rejected by admission control")

	// ErrDraining refuses new sessions and new BAI rounds while the
	// server is shutting down gracefully (BeginDrain); in-flight rounds
	// still complete. The HTTP binding maps it to 503 with a Retry-After
	// hint so load balancers and clients fail over cleanly.
	ErrDraining = errors.New("oneapi: server is draining")
)

// Machine-readable error codes carried in the HTTP binding's
// ErrorResponse.Code, so clients can react without string matching.
const (
	CodeStaleReport     = "stale_report"
	CodeUnknownSession  = "unknown_session"
	CodeUnknownCell     = "unknown_cell"
	CodeNoAssignment    = "no_assignment"
	CodeConflict        = "conflict"
	CodeAdmissionReject = "admission_reject"
	CodeDraining        = "draining"
	CodeBadRequest      = "bad_request"
	CodeInternal        = "internal"
)

// refusal is one row of the refusal table: a sentinel, the wire code
// the HTTP binding answers it with, and the status.
type refusal struct {
	err    error
	code   string
	status int
}

// refusals decides every refusal a sentinel names, on every route; a 503
// also carries Retry-After (writeErr). An error that wraps none of them
// gets its route's fallback status instead.
var refusals = [...]refusal{
	{ErrStaleReport, CodeStaleReport, http.StatusConflict},
	{ErrUnknownSession, CodeUnknownSession, http.StatusNotFound},
	{ErrUnknownCell, CodeUnknownCell, http.StatusNotFound},
	{ErrNoAssignment, CodeNoAssignment, http.StatusNotFound},
	{ErrSessionConflict, CodeConflict, http.StatusConflict},
	{ErrAdmissionRejected, CodeAdmissionReject, http.StatusServiceUnavailable},
	{ErrDraining, CodeDraining, http.StatusServiceUnavailable},
}

// refusalFor finds err's row in the refusal table.
func refusalFor(err error) (refusal, bool) {
	for _, r := range refusals {
		if errors.Is(err, r.err) {
			return r, true
		}
	}
	return refusal{}, false
}

// errorForCode maps a wire code back to the sentinel, so HTTP clients
// get the same errors.Is behaviour as in-process callers.
func errorForCode(code string) error {
	for _, r := range refusals {
		if r.code == code {
			return r.err
		}
	}
	return nil
}

// EnforcementFailure records one flow whose GBR install through an
// in-process PCEF failed during a BAI; the flow keeps its previous
// assignment and GBR.
type EnforcementFailure struct {
	FlowID int
	Reason string
}

// EnforceError reports a partially enforced BAI: the optimisation ran
// and every *other* flow's assignment was installed, but the listed
// flows' PCEF installs failed and their previous assignments were kept.
// It is returned alongside the committed assignments so callers can
// treat partial enforcement as degraded, not fatal.
type EnforceError struct {
	// BAISeq is the sequence number of the partially enforced BAI.
	BAISeq int64
	// Failed lists the flows left on their previous assignment.
	Failed []EnforcementFailure
}

// Error implements error.
func (e *EnforceError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "oneapi: BAI %d partially enforced (%d flow(s) kept previous GBR):",
		e.BAISeq, len(e.Failed))
	for _, f := range e.Failed {
		fmt.Fprintf(&b, " flow %d: %s;", f.FlowID, f.Reason)
	}
	return strings.TrimSuffix(b.String(), ";")
}
