package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/obs"
	"github.com/flare-sim/flare/internal/oneapi"
)

// backend is one depth at which the control plane can be driven. The
// workload logic issues the same operation stream to whichever backend
// it is given: the real server over the wire, or an in-process twin
// entered at the HTTP handler, at the Server API, or at the per-cell
// Controller. Each call returns the time spent inside that depth.
type backend interface {
	Open(cell, flow int) (time.Duration, error)
	Close(cell, flow int) (time.Duration, error)
	Report(cell int, rep oneapi.StatsReport) (oneapi.StatsResponse, time.Duration, error)
	// Poll's ok is false while the session has no assignment yet.
	Poll(cell, flow int) (a oneapi.AssignmentResponse, ok bool, d time.Duration, err error)
	Handover(from, to, flow int) (time.Duration, error)
}

// wireBackend drives the real oneapiserver process over loopback HTTP
// through one keep-alive connection, with the repo's own plugin client
// for session traffic. It belongs to one worker goroutine.
type wireBackend struct {
	base    string
	httpc   *http.Client
	ladder  has.Ladder
	clients map[int]*oneapi.Client
	retries int
}

func newWireBackend(base string, ladder has.Ladder) *wireBackend {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
	return &wireBackend{base: base, httpc: &http.Client{Transport: tr}, ladder: ladder,
		clients: make(map[int]*oneapi.Client)}
}

func (b *wireBackend) client(cell, flow int) *oneapi.Client {
	c := b.clients[flow]
	if c == nil {
		c = oneapi.NewClient(b.base, cell, flow, b.httpc)
		b.clients[flow] = c
	}
	return c
}

func (b *wireBackend) Open(cell, flow int) (time.Duration, error) {
	t0 := time.Now()
	err := b.client(cell, flow).Open(b.ladder, core.Preferences{})
	return time.Since(t0), err
}

func (b *wireBackend) Close(cell, flow int) (time.Duration, error) {
	t0 := time.Now()
	err := b.client(cell, flow).Close()
	return time.Since(t0), err
}

func (b *wireBackend) Report(cell int, rep oneapi.StatsReport) (oneapi.StatsResponse, time.Duration, error) {
	t0 := time.Now()
	resp, err := oneapi.ReportStatsContext(context.Background(), b.httpc, b.base, cell, rep)
	return resp, time.Since(t0), err
}

func (b *wireBackend) Poll(cell, flow int) (oneapi.AssignmentResponse, bool, time.Duration, error) {
	t0 := time.Now()
	a, ok, err := b.client(cell, flow).Poll()
	return a, ok, time.Since(t0), err
}

// Handover has no client-library call; it is one POST. The flow's
// plugin client is bound to its cell, so the moved session gets a new
// one (the old one's retry count is kept).
func (b *wireBackend) Handover(from, to, flow int) (time.Duration, error) {
	body, err := json.Marshal(oneapi.HandoverRequest{ToCell: to})
	if err != nil {
		return 0, err
	}
	url := fmt.Sprintf("%s/oneapi/v4/cells/%d/sessions/%d/handover", b.base, from, flow)
	t0 := time.Now()
	resp, err := b.httpc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return time.Since(t0), err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if resp.StatusCode != http.StatusNoContent {
		return d, fmt.Errorf("handover flow %d %d->%d: status %d", flow, from, to, resp.StatusCode)
	}
	if old := b.clients[flow]; old != nil {
		b.retries += old.Stats().Retries
	}
	b.clients[flow] = oneapi.NewClient(b.base, to, flow, b.httpc)
	return d, nil
}

// totalRetries sums the plugin clients' retry counters.
func (b *wireBackend) totalRetries() int {
	n := b.retries
	for _, c := range b.clients {
		n += c.Stats().Retries
	}
	return n
}

func (b *wireBackend) closeIdle() { b.httpc.CloseIdleConnections() }

// newTwinServer builds an in-process server configured like the
// oneapiserver binary with no flags: default controller, default
// shards, a flight recorder attached.
func newTwinServer() *oneapi.Server {
	s := oneapi.NewServer(core.DefaultConfig(), nil)
	s.SetRecorder(obs.New(obs.Options{}))
	return s
}

// handlerBackend enters a twin server at oneapi.Handler, with an
// httptest recorder in place of the socket. Only ServeHTTP is timed.
type handlerBackend struct {
	h      http.Handler
	ladder has.Ladder
	// lastReq and lastResp are the body sizes of the latest exchange.
	lastReq, lastResp int
}

func newHandlerBackend(s *oneapi.Server, ladder has.Ladder) *handlerBackend {
	return &handlerBackend{h: oneapi.Handler(s), ladder: ladder}
}

func (b *handlerBackend) serve(method, path string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rr := httptest.NewRecorder()
	t0 := time.Now()
	b.h.ServeHTTP(rr, req)
	d := time.Since(t0)
	b.lastReq, b.lastResp = len(body), rr.Body.Len()
	return rr, d
}

func statusErr(op string, rr *httptest.ResponseRecorder, want ...int) error {
	for _, w := range want {
		if rr.Code == w {
			return nil
		}
	}
	return fmt.Errorf("%s: status %d: %s", op, rr.Code, bytes.TrimSpace(rr.Body.Bytes()))
}

func (b *handlerBackend) Open(cell, flow int) (time.Duration, error) {
	body, err := json.Marshal(oneapi.SessionRequest{FlowID: flow, LadderBps: b.ladder})
	if err != nil {
		return 0, err
	}
	rr, d := b.serve(http.MethodPost, fmt.Sprintf("/oneapi/v4/cells/%d/sessions", cell), body)
	return d, statusErr("open", rr, http.StatusCreated, http.StatusOK)
}

func (b *handlerBackend) Close(cell, flow int) (time.Duration, error) {
	rr, d := b.serve(http.MethodDelete, fmt.Sprintf("/oneapi/v4/cells/%d/sessions/%d", cell, flow), nil)
	return d, statusErr("close", rr, http.StatusNoContent)
}

func (b *handlerBackend) Report(cell int, rep oneapi.StatsReport) (oneapi.StatsResponse, time.Duration, error) {
	body, err := json.Marshal(rep)
	if err != nil {
		return oneapi.StatsResponse{}, 0, err
	}
	rr, d := b.serve(http.MethodPost, fmt.Sprintf("/oneapi/v4/cells/%d/stats", cell), body)
	if err := statusErr("stats", rr, http.StatusOK); err != nil {
		return oneapi.StatsResponse{}, d, err
	}
	var resp oneapi.StatsResponse
	err = json.Unmarshal(rr.Body.Bytes(), &resp)
	return resp, d, err
}

func (b *handlerBackend) Poll(cell, flow int) (oneapi.AssignmentResponse, bool, time.Duration, error) {
	rr, d := b.serve(http.MethodGet, fmt.Sprintf("/oneapi/v4/cells/%d/assignments/%d", cell, flow), nil)
	if rr.Code == http.StatusNotFound {
		var e oneapi.ErrorResponse
		if json.Unmarshal(rr.Body.Bytes(), &e) == nil && e.Code == oneapi.CodeNoAssignment {
			return oneapi.AssignmentResponse{}, false, d, nil
		}
	}
	if err := statusErr("poll", rr, http.StatusOK); err != nil {
		return oneapi.AssignmentResponse{}, false, d, err
	}
	var a oneapi.AssignmentResponse
	err := json.Unmarshal(rr.Body.Bytes(), &a)
	return a, err == nil, d, err
}

func (b *handlerBackend) Handover(from, to, flow int) (time.Duration, error) {
	body, err := json.Marshal(oneapi.HandoverRequest{ToCell: to})
	if err != nil {
		return 0, err
	}
	rr, d := b.serve(http.MethodPost, fmt.Sprintf("/oneapi/v4/cells/%d/sessions/%d/handover", from, flow), body)
	return d, statusErr("handover", rr, http.StatusNoContent)
}

// inprocBackend enters a twin server at its exported Go API.
type inprocBackend struct {
	s      *oneapi.Server
	ladder has.Ladder
}

func (b *inprocBackend) Open(cell, flow int) (time.Duration, error) {
	req := oneapi.SessionRequest{FlowID: flow, LadderBps: b.ladder}
	t0 := time.Now()
	_, err := b.s.Open(cell, req)
	return time.Since(t0), err
}

func (b *inprocBackend) Close(cell, flow int) (time.Duration, error) {
	t0 := time.Now()
	b.s.CloseSession(cell, flow)
	return time.Since(t0), nil
}

func (b *inprocBackend) Report(cell int, rep oneapi.StatsReport) (oneapi.StatsResponse, time.Duration, error) {
	t0 := time.Now()
	resp, err := b.s.RunBAIReport(cell, rep, nil)
	return resp, time.Since(t0), err
}

func (b *inprocBackend) Poll(cell, flow int) (oneapi.AssignmentResponse, bool, time.Duration, error) {
	t0 := time.Now()
	a, err := b.s.AssignmentErr(cell, flow)
	d := time.Since(t0)
	if err != nil {
		if errors.Is(err, oneapi.ErrNoAssignment) {
			return a, false, d, nil
		}
		return a, false, d, err
	}
	return a, true, d, nil
}

func (b *inprocBackend) Handover(from, to, flow int) (time.Duration, error) {
	t0 := time.Now()
	err := b.s.Handover(from, to, flow)
	return time.Since(t0), err
}

// ctrlBackend enters below the server, at one core.Controller per cell,
// and keeps the solver time the controller itself reports for its
// latest BAI (the bai_solve event's duration).
type ctrlBackend struct {
	ladder    has.Ladder
	ctrls     map[int]*core.Controller
	rec       *obs.Recorder
	lastSolve time.Duration
}

func newCtrlBackend(ladder has.Ladder) *ctrlBackend {
	b := &ctrlBackend{ladder: ladder, ctrls: make(map[int]*core.Controller)}
	b.rec = obs.New(obs.Options{Sinks: []obs.Sink{solveSink{b}}})
	return b
}

// solveSink copies each bai_solve event's duration into its backend.
type solveSink struct{ b *ctrlBackend }

func (s solveSink) Write(e *obs.Event) error {
	if e.Kind == obs.KindBAISolve {
		s.b.lastSolve = time.Duration(e.DurNs)
	}
	return nil
}

func (solveSink) Close() error { return nil }

func (b *ctrlBackend) ctrl(cell int) *core.Controller {
	c := b.ctrls[cell]
	if c == nil {
		c = core.NewController(core.DefaultConfig())
		c.SetRecorder(b.rec, cell)
		b.ctrls[cell] = c
	}
	return c
}

func (b *ctrlBackend) Open(cell, flow int) (time.Duration, error) {
	t0 := time.Now()
	err := b.ctrl(cell).Register(flow, b.ladder, core.Preferences{})
	return time.Since(t0), err
}

func (b *ctrlBackend) Close(cell, flow int) (time.Duration, error) {
	t0 := time.Now()
	b.ctrl(cell).Unregister(flow)
	return time.Since(t0), nil
}

func (b *ctrlBackend) Report(cell int, rep oneapi.StatsReport) (oneapi.StatsResponse, time.Duration, error) {
	t0 := time.Now()
	as, err := b.ctrl(cell).RunBAI(rep.Flows, rep.NumDataFlows)
	return oneapi.StatsResponse{Assignments: as}, time.Since(t0), err
}

// Poll has no controller-level counterpart: assignments are kept by the
// server, one layer up.
func (b *ctrlBackend) Poll(int, int) (oneapi.AssignmentResponse, bool, time.Duration, error) {
	return oneapi.AssignmentResponse{}, false, 0, nil
}

func (b *ctrlBackend) Handover(from, to, flow int) (time.Duration, error) {
	t0 := time.Now()
	snap, err := b.ctrl(from).Snapshot(flow)
	if err == nil {
		err = b.ctrl(to).Register(flow, snap.Ladder, snap.Preferences)
	}
	if err == nil {
		b.ctrl(from).Unregister(flow)
	}
	return time.Since(t0), err
}
