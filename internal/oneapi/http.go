package oneapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/flare-sim/flare/internal/core"
)

// Request bodies are bounded: no route legitimately carries more than
// a report for a few thousand flows. A larger body is answered 413
// before it is read.
const maxBodyBytes = 1 << 20

// route is one row of the binding's route table.
type route uint8

const (
	routeNone route = iota
	routeSessions
	routeSession
	routePreferences
	routeHandover
	routeStats
	routePoll
)

// routeMethods is the method each route answers and the Allow header a
// 405 carries (a GET route also serves HEAD).
var routeMethods = [...]struct{ method, allow string }{
	routeSessions:    {http.MethodPost, "POST"},
	routeSession:     {http.MethodDelete, "DELETE"},
	routePreferences: {http.MethodPut, "PUT"},
	routeHandover:    {http.MethodPost, "POST"},
	routeStats:       {http.MethodPost, "POST"},
	routePoll:        {http.MethodGet, "GET, HEAD"},
}

// matchRoute finds the route a path names and its raw {cell} and {flow}
// segments (empty where the route has none). Segments must be
// non-empty; nothing is cleaned or redirected, so a doubled or trailing
// slash is simply no route.
func matchRoute(path string) (rt route, cell, flow string) {
	rest, ok := strings.CutPrefix(path, "/oneapi/v4/")
	if !ok {
		return routeNone, "", ""
	}
	if rest, ok = strings.CutPrefix(rest, "cells/"); !ok {
		return routeNone, "", ""
	}
	cell, rest, _ = strings.Cut(rest, "/")
	if cell == "" {
		return routeNone, "", ""
	}
	switch rest {
	case "sessions":
		return routeSessions, cell, ""
	case "stats":
		return routeStats, cell, ""
	}
	collection, rest, _ := strings.Cut(rest, "/")
	flow, leaf, hasLeaf := strings.Cut(rest, "/")
	if flow == "" {
		return routeNone, "", ""
	}
	switch {
	case collection == "assignments" && !hasLeaf:
		return routePoll, cell, flow
	case collection == "sessions" && !hasLeaf:
		return routeSession, cell, flow
	case collection == "sessions" && leaf == "preferences":
		return routePreferences, cell, flow
	case collection == "sessions" && leaf == "handover":
		return routeHandover, cell, flow
	}
	return routeNone, "", ""
}

// Handler binds the server to JSON-over-HTTP in the shape of the OMA
// RESTful Network APIs the paper builds on:
//
//	POST   /oneapi/v4/cells/{cell}/sessions            open a session
//	DELETE /oneapi/v4/cells/{cell}/sessions/{flow}     close a session
//	POST   /oneapi/v4/cells/{cell}/stats               eNB report -> BAI
//	GET    /oneapi/v4/cells/{cell}/assignments/{flow}  plugin poll
//	POST   /oneapi/v4/cells/{cell}/sessions/{flow}/handover  move session to another cell
//	PUT    /oneapi/v4/cells/{cell}/sessions/{flow}/preferences  replace client preferences
//
// The stats POST doubles as the enforcement channel: its response body
// carries the GBR assignments for the eNodeB's Continuous GBR Updater,
// so no server-initiated connection to the eNodeB is needed.
//
// A control loop of N sessions is N polls and one stats exchange per
// BAI, so those two routes are built to cost almost nothing beyond the
// work they ask for: the path is parsed straight to integers by one
// flat table (no pattern matching), and their messages go through the
// append-style codecs of messages.go rather than reflection.
func Handler(s *Server) http.Handler { return handler{s} }

type handler struct{ s *Server }

func (h handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt, cellSeg, flowSeg := matchRoute(r.URL.Path)
	if rt == routeNone {
		http.NotFound(w, r)
		return
	}
	if m := routeMethods[rt]; r.Method != m.method && !(m.method == http.MethodGet && r.Method == http.MethodHead) {
		w.Header().Set("Allow", m.allow)
		http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
		return
	}
	cellID, flowID, err := pathIDs(cellSeg, flowSeg)
	if err != nil {
		h.writeErr(w, http.StatusBadRequest, err)
		return
	}
	switch rt {
	case routeSessions:
		h.open(w, r, cellID)
	case routeSession:
		h.s.CloseSession(cellID, flowID)
		w.WriteHeader(http.StatusNoContent)
	case routePreferences:
		h.preferences(w, r, cellID, flowID)
	case routeHandover:
		h.handover(w, r, cellID, flowID)
	case routeStats:
		h.stats(w, r, cellID)
	case routePoll:
		h.poll(w, cellID, flowID)
	}
}

// pathIDs parses a route's {cell} segment and, where it has one, its
// {flow} segment, accepting what strconv.Atoi accepts.
func pathIDs(cell, flow string) (cellID, flowID int, err error) {
	cellID, err = strconv.Atoi(cell)
	if flow == "" {
		if err != nil {
			err = fmt.Errorf("path segment %q is not an integer", "cell")
		}
		return cellID, 0, err
	}
	flowID, flowErr := strconv.Atoi(flow)
	if err != nil || flowErr != nil {
		err = errors.New("bad path")
	}
	return cellID, flowID, err
}

func (h handler) open(w http.ResponseWriter, r *http.Request, cellID int) {
	var req SessionRequest
	if !h.readJSON(w, r, "session request", &req) {
		return
	}
	created, err := h.s.Open(cellID, req)
	switch {
	case err != nil:
		h.writeErr(w, http.StatusBadRequest, err)
	case created:
		w.WriteHeader(http.StatusCreated)
	default:
		// Idempotent re-open (client retry / restart): 200, not 409.
		w.WriteHeader(http.StatusOK)
	}
}

func (h handler) preferences(w http.ResponseWriter, r *http.Request, cellID, flowID int) {
	var prefs core.Preferences
	if !h.readJSON(w, r, "preferences", &prefs) {
		return
	}
	if err := h.s.SetPreferences(cellID, flowID, prefs); err != nil {
		h.writeErr(w, http.StatusBadRequest, flowRefusal(cellID, flowID, err))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h handler) handover(w http.ResponseWriter, r *http.Request, fromCell, flowID int) {
	var req HandoverRequest
	if !h.readJSON(w, r, "handover request", &req) {
		return
	}
	if err := h.s.Handover(fromCell, req.ToCell, flowID); err != nil {
		h.writeErr(w, http.StatusBadRequest, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h handler) stats(w http.ResponseWriter, r *http.Request, cellID int) {
	var report StatsReport
	body, err := readBody(w, r)
	if err == nil {
		err = decodeStatsReport(body, &report)
	}
	if err != nil {
		h.writeDecodeErr(w, "stats report", err)
		return
	}
	// No PCEF: the eNodeB installs the GBRs the response carries.
	resp, err := h.s.RunBAIReport(cellID, report, nil)
	if err != nil {
		h.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	out, err := appendStatsResponse(make([]byte, 0, statsResponseSize(resp)), resp)
	h.writeEncoded(w, out, err)
}

func (h handler) poll(w http.ResponseWriter, cellID, flowID int) {
	a, err := h.s.AssignmentErr(cellID, flowID)
	if err != nil {
		// Every poll refusal is a 404, but the code disambiguates "no
		// BAI yet" (keep polling) from "no such session" (re-open):
		// after a server restart the second tells clients to recover.
		h.writeErr(w, http.StatusInternalServerError, flowRefusal(cellID, flowID, err))
		return
	}
	// 128 B holds every poll short of 20-digit ids and sequences.
	out, err := appendAssignmentResponse(make([]byte, 0, 128), a)
	h.writeEncoded(w, out, err)
}

// flowRefusal names the cell, and the flow where it has one, in the
// bare sentinels SetPreferences and AssignmentErr refuse with.
func flowRefusal(cellID, flowID int, err error) error {
	switch err {
	case ErrUnknownCell:
		return fmt.Errorf("oneapi: cell %d: %w", cellID, err)
	case ErrUnknownSession, ErrNoAssignment:
		return fmt.Errorf("oneapi: cell %d flow %d: %w", cellID, flowID, err)
	}
	return err
}

// retryAfterSeconds is the Retry-After hint a 503 carries: one BAI
// rounded up to a whole second (the header's granularity).
func retryAfterSeconds(s *Server) int {
	return int((s.cfg.BAI + time.Second - 1) / time.Second)
}

// readBody reads a request body of at most maxBodyBytes in one piece.
// A declared length over the limit is refused before anything is
// allocated or read; an undeclared one (chunked) is cut off at the
// limit as it streams.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > maxBodyBytes {
		return nil, &http.MaxBytesError{Limit: maxBodyBytes}
	}
	if r.ContentLength < 0 {
		return io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	}
	body := make([]byte, r.ContentLength)
	_, err := io.ReadFull(r.Body, body)
	return body, err
}

// readJSON decodes a cold route's bounded request body with
// encoding/json, answering the failure itself: it reports whether v
// holds the message.
func (h handler) readJSON(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err != nil {
		h.writeDecodeErr(w, what, err)
	}
	return err == nil
}

// writeDecodeErr answers a request body that could not be read as the
// message what: 413 if it was over its limit, 400 otherwise.
func (h handler) writeDecodeErr(w http.ResponseWriter, what string, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	h.writeErr(w, status, fmt.Errorf("decode %s: %w", what, err))
}

// jsonContentType is the one Content-Type value every response shares;
// net/http copies header values out and never writes into them.
var jsonContentType = []string{"application/json"}

// writeEncoded sends a hot message the codecs have encoded into body,
// adding the newline json.Encoder ends a value with — or a 500 if the
// value had no JSON encoding.
func (h handler) writeEncoded(w http.ResponseWriter, body []byte, err error) {
	if err != nil {
		h.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	// A write to a live ResponseWriter can only fail on a broken
	// connection; nothing actionable remains at that point.
	_, _ = w.Write(append(body, '\n'))
}

// writeErr answers a refusal with the error envelope, sent through
// encoding/json. The refusal table decides the status and code of every
// error it names; any other error gets fallback, the route's status for
// what the table does not name, with code bad_request for a 4xx and
// internal otherwise. A 503 tells the client when to retry: one BAI —
// for admission, the earliest moment the predicate can re-evaluate; for
// a drain, a sane fail-over pause.
func (h handler) writeErr(w http.ResponseWriter, fallback int, err error) {
	status, code := fallback, CodeInternal
	if status < http.StatusInternalServerError {
		code = CodeBadRequest
	}
	if r, ok := refusalFor(err); ok {
		status, code = r.status, r.code
	}
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(h.s)))
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	// As in writeEncoded: only a broken connection fails here.
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error(), Code: code})
}
