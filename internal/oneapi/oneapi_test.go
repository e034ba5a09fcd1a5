package oneapi

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
)

func TestPCRFCounts(t *testing.T) {
	p := NewPCRF()
	if p.NumDataFlows(1) != 0 {
		t.Fatal("empty PCRF nonzero")
	}
	p.RegisterDataFlow(1, 10)
	p.RegisterDataFlow(1, 11)
	p.RegisterDataFlow(2, 12)
	if p.NumDataFlows(1) != 2 || p.NumDataFlows(2) != 1 {
		t.Fatalf("counts %d/%d", p.NumDataFlows(1), p.NumDataFlows(2))
	}
	p.RegisterDataFlow(1, 10) // idempotent
	if p.NumDataFlows(1) != 2 {
		t.Fatal("duplicate registration counted twice")
	}
	p.UnregisterDataFlow(1, 10)
	if p.NumDataFlows(1) != 1 {
		t.Fatal("unregister failed")
	}
	p.UnregisterDataFlow(9, 99) // unknown cell is a no-op
}

func TestPCRFConcurrent(t *testing.T) {
	p := NewPCRF()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p.RegisterDataFlow(i%4, i)
			p.NumDataFlows(i % 4)
			p.UnregisterDataFlow(i%4, i)
		}(i)
	}
	wg.Wait()
	for c := 0; c < 4; c++ {
		if p.NumDataFlows(c) != 0 {
			t.Fatalf("cell %d leaked flows", c)
		}
	}
}

func serverForTest() *Server {
	cfg := core.DefaultConfig()
	cfg.Delta = 1
	return NewServer(cfg, nil)
}

func TestServerSessionLifecycle(t *testing.T) {
	s := serverForTest()
	req := SessionRequest{FlowID: 1, LadderBps: has.SimLadder()}
	if _, err := s.Open(0, req); err != nil {
		t.Fatal(err)
	}
	// Re-opening the same flow with the same ladder is idempotent: a
	// client retry/restart must not conflict with its own session.
	if _, err := s.Open(0, req); err != nil {
		t.Fatalf("idempotent re-open rejected: %v", err)
	}
	// Re-opening with a *different* ladder is a real conflict.
	other := SessionRequest{FlowID: 1, LadderBps: []float64{100_000, 900_000}}
	if _, err := s.Open(0, other); !errors.Is(err, ErrSessionConflict) {
		t.Fatalf("conflicting re-open: err = %v", err)
	}
	// Same flow ID in a different cell is a separate controller.
	if _, err := s.Open(1, req); err != nil {
		t.Fatal(err)
	}
	s.CloseSession(0, 1)
	if _, err := s.Open(0, req); err != nil {
		t.Fatalf("re-open after close failed: %v", err)
	}
	if _, err := s.Open(0, SessionRequest{FlowID: 9, LadderBps: []float64{}}); err == nil {
		t.Fatal("empty ladder accepted")
	}
}

// perFlow adapts a per-flow install function to a PCEF: each install
// of a batch is one call, in batch order.
func perFlow(install func(flowID int, gbrBps float64) error) PCEF {
	return func(installs []GBRInstall) []error {
		var errs []error
		for i, in := range installs {
			if err := install(in.FlowID, in.GBRBps); err != nil {
				if errs == nil {
					errs = make([]error, len(installs))
				}
				errs[i] = err
			}
		}
		return errs
	}
}

func TestServerRunBAIEnforcesGBR(t *testing.T) {
	s := serverForTest()
	if _, err := s.Open(0, SessionRequest{FlowID: 1, LadderBps: has.SimLadder()}); err != nil {
		t.Fatal(err)
	}
	gbrs := map[int]float64{}
	pcef := perFlow(func(flowID int, gbr float64) error {
		gbrs[flowID] = gbr
		return nil
	})
	report := StatsReport{
		Flows:        map[int]core.FlowStats{1: {Bytes: 1_000_000, RBs: 50_000}},
		NumDataFlows: 0,
	}
	resp, err := s.RunBAIReport(0, report, pcef)
	if err != nil {
		t.Fatal(err)
	}
	// The flow is alone in an empty cell with a healthy radio report:
	// the unconstrained first BAI places it at the ladder top.
	if len(resp.Assignments) != 1 || resp.Assignments[0].RateBps != 3_000_000 {
		t.Fatalf("first BAI assignments %v", resp.Assignments)
	}
	if gbrs[1] != 3_000_000 {
		t.Fatalf("PCEF got GBR %v", gbrs[1])
	}
	// Polling view matches.
	a, err := s.AssignmentErr(0, 1)
	if err != nil || a.RateBps != 3_000_000 || a.BAISeq != 1 {
		t.Fatalf("AssignmentErr = %+v, %v", a, err)
	}
	if _, err := s.AssignmentErr(0, 99); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("assignment for unknown flow: %v", err)
	}
	if _, err := s.AssignmentErr(9, 1); !errors.Is(err, ErrUnknownCell) {
		t.Fatalf("assignment for unknown cell: %v", err)
	}
}

func TestServerUsesPCRFWhenReportDefers(t *testing.T) {
	s := serverForTest()
	s.PCRF().RegisterDataFlow(0, 100)
	if _, err := s.Open(0, SessionRequest{FlowID: 1, LadderBps: has.SimLadder()}); err != nil {
		t.Fatal(err)
	}
	// NumDataFlows -1 defers to the PCRF; just verify it runs.
	if _, err := s.RunBAIReport(0, StatsReport{NumDataFlows: -1}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestServerClimbsOverBAIs(t *testing.T) {
	s := serverForTest()
	if _, err := s.Open(0, SessionRequest{FlowID: 7, LadderBps: has.SimLadder()}); err != nil {
		t.Fatal(err)
	}
	report := StatsReport{
		Flows: map[int]core.FlowStats{7: {Bytes: 2_000_000, RBs: 50_000}},
	}
	var last core.Assignment
	for i := 0; i < 40; i++ {
		resp, err := s.RunBAIReport(0, report, nil)
		if err != nil {
			t.Fatal(err)
		}
		last = resp.Assignments[0]
	}
	if last.Level != has.SimLadder().Len()-1 {
		t.Fatalf("flow stuck at level %d", last.Level)
	}
	if n, _, err := s.LastSolve(0); n != 40 || err != nil {
		t.Fatalf("%d solves, %v; want 40", n, err)
	}
	if _, _, err := s.LastSolve(5); !errors.Is(err, ErrUnknownCell) {
		t.Fatalf("solve count for unknown cell: %v, want ErrUnknownCell", err)
	}
}

func TestServerSetPreferences(t *testing.T) {
	s := serverForTest()
	if err := s.SetPreferences(0, 1, core.Preferences{}); err == nil {
		t.Fatal("preferences for unknown cell accepted")
	}
	if _, err := s.Open(0, SessionRequest{FlowID: 1, LadderBps: has.SimLadder()}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetPreferences(0, 1, core.Preferences{MaxBps: 250_000}); err != nil {
		t.Fatal(err)
	}
	report := StatsReport{Flows: map[int]core.FlowStats{1: {Bytes: 2_000_000, RBs: 50_000}}}
	var last core.Assignment
	for i := 0; i < 30; i++ {
		resp, err := s.RunBAIReport(0, report, nil)
		if err != nil {
			t.Fatal(err)
		}
		last = resp.Assignments[0]
	}
	if last.RateBps > 250_000 {
		t.Fatalf("preference cap violated: %v", last.RateBps)
	}
}

// --- HTTP binding ---

func TestHTTPEndToEnd(t *testing.T) {
	s := serverForTest()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	plugin := NewClient(ts.URL, 0, 3, ts.Client())
	if err := plugin.Open(has.SimLadder(), core.Preferences{}); err != nil {
		t.Fatal(err)
	}
	// Duplicate open with the same ladder is idempotent (200 OK).
	if err := plugin.Open(has.SimLadder(), core.Preferences{}); err != nil {
		t.Fatalf("idempotent re-open over HTTP rejected: %v", err)
	}
	// A different ladder conflicts (409) and maps back to the sentinel.
	conflicting := NewClient(ts.URL, 0, 3, ts.Client())
	if err := conflicting.Open(has.Ladder{100_000, 900_000}, core.Preferences{}); !errors.Is(err, ErrSessionConflict) {
		t.Fatalf("conflicting open: err = %v", err)
	}
	// No assignment before the first BAI.
	if _, ok, err := plugin.Poll(); err != nil || ok {
		t.Fatalf("pre-BAI poll: ok=%v err=%v", ok, err)
	}
	// eNB reports stats; the response carries the GBR assignments.
	report := StatsReport{
		Flows: map[int]core.FlowStats{3: {Bytes: 1_000_000, RBs: 50_000}},
	}
	resp, err := ReportStatsContext(context.Background(), ts.Client(), ts.URL, 0, report)
	if err != nil {
		t.Fatal(err)
	}
	if as := resp.Assignments; len(as) != 1 || as[0].FlowID != 3 {
		t.Fatalf("assignments %v", as)
	}
	// The plugin now sees its assignment.
	a, ok, err := plugin.Poll()
	if err != nil || !ok {
		t.Fatalf("poll failed: ok=%v err=%v", ok, err)
	}
	if a.RateBps <= 0 || a.BAISeq != 1 {
		t.Fatalf("polled assignment %+v", a)
	}
	if err := plugin.Close(); err != nil {
		t.Fatal(err)
	}
	// After close the assignment is gone.
	if _, ok, _ := plugin.Poll(); ok {
		t.Fatal("assignment survived close")
	}
}

func TestHTTPBadRequests(t *testing.T) {
	s := serverForTest()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	// Non-integer cell.
	resp, err := ts.Client().Post(ts.URL+"/oneapi/v4/cells/abc/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp.Body)
	if resp.StatusCode != 400 {
		t.Fatalf("status %d for bad cell", resp.StatusCode)
	}
	// Malformed JSON body.
	resp, err = ts.Client().Post(ts.URL+"/oneapi/v4/cells/0/stats", "application/json",
		nil)
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp.Body)
	if resp.StatusCode != 400 {
		t.Fatalf("status %d for empty stats body", resp.StatusCode)
	}
	// Empty ladder must 400, not panic: with admission control on, the
	// predicate prices the candidate by its floor rung before Register's
	// validation would catch it.
	cfg := core.DefaultConfig()
	cfg.AdmissionControl = true
	admitting := httptest.NewServer(Handler(NewServer(cfg, nil)))
	defer admitting.Close()
	resp, err = admitting.Client().Post(admitting.URL+"/oneapi/v4/cells/0/sessions",
		"application/json", strings.NewReader(`{"flow_id": 1, "ladder_bps": []}`))
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp.Body)
	if resp.StatusCode != 400 {
		t.Fatalf("status %d for empty-ladder open under admission control", resp.StatusCode)
	}
}

func TestServerConcurrentAccess(t *testing.T) {
	s := serverForTest()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cell := i % 2
			if _, err := s.Open(cell, SessionRequest{FlowID: i, LadderBps: has.SimLadder()}); err != nil {
				t.Error(err)
				return
			}
			report := StatsReport{Flows: map[int]core.FlowStats{i: {Bytes: 100_000, RBs: 10_000}}}
			if _, err := s.RunBAIReport(cell, report, nil); err != nil {
				t.Error(err)
			}
			_, _ = s.AssignmentErr(cell, i)
		}(i)
	}
	wg.Wait()
}

func TestHTTPPreferencesUpdate(t *testing.T) {
	s := serverForTest()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	plugin := NewClient(ts.URL, 0, 1, ts.Client())
	// Preferences for an unknown session 404.
	if err := plugin.UpdatePreferences(core.Preferences{MaxBps: 1}); err == nil {
		t.Fatal("preferences for unknown session accepted")
	}
	if err := plugin.Open(has.SimLadder(), core.Preferences{}); err != nil {
		t.Fatal(err)
	}
	if err := plugin.UpdatePreferences(core.Preferences{MaxBps: 250_000}); err != nil {
		t.Fatal(err)
	}
	// The cap binds on the next BAI.
	report := StatsReport{Flows: map[int]core.FlowStats{1: {Bytes: 2_000_000, RBs: 50_000}}}
	var last core.Assignment
	for i := 0; i < 20; i++ {
		resp, err := s.RunBAIReport(0, report, nil)
		if err != nil {
			t.Fatal(err)
		}
		last = resp.Assignments[0]
	}
	if last.RateBps > 250_000 {
		t.Fatalf("HTTP preference cap ignored: %v", last.RateBps)
	}
	// Skimming pins to the floor even with a rich radio.
	if err := plugin.UpdatePreferences(core.Preferences{Skimming: true}); err != nil {
		t.Fatal(err)
	}
	resp, err := s.RunBAIReport(0, report, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Assignments[0].Level != 0 {
		t.Fatalf("skimming session assigned level %d", resp.Assignments[0].Level)
	}
}

func TestHandoverMovesSessionBetweenCells(t *testing.T) {
	s := serverForTest()
	prefs := core.Preferences{MaxBps: 500_000}
	if _, err := s.Open(0, SessionRequest{FlowID: 7, LadderBps: has.SimLadder(), Preferences: prefs}); err != nil {
		t.Fatal(err)
	}
	report := StatsReport{Flows: map[int]core.FlowStats{7: {Bytes: 1_000_000, RBs: 50_000}}}
	if _, err := s.RunBAIReport(0, report, nil); err != nil {
		t.Fatal(err)
	}
	// Move the session to cell 1.
	if err := s.Handover(0, 1, 7); err != nil {
		t.Fatal(err)
	}
	// Gone from the source cell.
	// Gone with it is the source cell: the session was its last.
	if _, err := s.AssignmentErr(0, 7); !errors.Is(err, ErrUnknownCell) {
		t.Fatalf("poll at the emptied source: %v, want ErrUnknownCell", err)
	}
	if _, err := s.RunBAIReport(0, StatsReport{}, nil); !errors.Is(err, ErrUnknownCell) {
		t.Fatalf("report to the emptied source: %v, want ErrUnknownCell", err)
	}
	// Live in the target cell, preferences intact (the 500k cap binds).
	var last core.Assignment
	for i := 0; i < 10; i++ {
		resp, err := s.RunBAIReport(1, report, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Assignments) != 1 {
			t.Fatalf("target cell has %d sessions", len(resp.Assignments))
		}
		last = resp.Assignments[0]
	}
	if last.RateBps > 500_000 {
		t.Fatalf("preferences lost in handover: assigned %v", last.RateBps)
	}
	// Error paths.
	if err := s.Handover(9, 1, 7); err == nil {
		t.Fatal("handover from unknown cell accepted")
	}
	if err := s.Handover(1, 0, 99); err == nil {
		t.Fatal("handover of unknown flow accepted")
	}
	// Handover onto a cell where the ID is taken conflicts.
	if _, err := s.Open(0, SessionRequest{FlowID: 7, LadderBps: has.SimLadder()}); err != nil {
		t.Fatal(err)
	}
	if err := s.Handover(1, 0, 7); err == nil {
		t.Fatal("handover onto an occupied flow ID accepted")
	}
}

// padded stretches a JSON object to n bytes with whitespace after its
// opening brace.
func padded(doc string, n int) string {
	return doc[:1] + strings.Repeat(" ", n-len(doc)) + doc[1:]
}

// unreadBody fails the test if the handler reads it.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("an over-limit body was read")
	return 0, io.EOF
}
func (unreadBody) Close() error { return nil }

// TestHTTPBodyLimits: every route that takes a body refuses one over
// its cap with 413 and the bad_request envelope — whether the length
// was declared or the body streamed in chunks — and still serves one
// that is exactly at the cap.
func TestHTTPBodyLimits(t *testing.T) {
	s := serverForTest()
	if _, err := s.Open(0, SessionRequest{FlowID: 1, LadderBps: has.SimLadder()}); err != nil {
		t.Fatal(err)
	}
	h := Handler(s)
	for _, tc := range []struct {
		name, method, path, doc string
		atLimit                 int
	}{
		{"open", "POST", "/oneapi/v4/cells/0/sessions", `{"flow_id":2,"ladder_bps":[200000,400000]}`, 201},
		{"preferences", "PUT", "/oneapi/v4/cells/0/sessions/1/preferences", `{"max_bps":250000}`, 204},
		{"handover", "POST", "/oneapi/v4/cells/0/sessions/1/handover", `{"to_cell":0}`, 400},
		{"stats", "POST", "/oneapi/v4/cells/0/stats", `{"flows":{"1":{"bytes":1000,"rbs":100}}}`, 200},
	} {
		for _, chunked := range []bool{false, true} {
			for _, over := range []int{0, 1} {
				s.CloseSession(0, 2) // so that every at-limit open creates
				req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(padded(tc.doc, maxBodyBytes+over)))
				if chunked {
					req.ContentLength = -1
				}
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, req)
				want := tc.atLimit
				if over > 0 {
					want = http.StatusRequestEntityTooLarge
				}
				if rr.Code != want {
					t.Errorf("%s chunked=%v, %d B over the limit: status %d, want %d", tc.name, chunked, over, rr.Code, want)
				}
				if over > 0 && !strings.Contains(rr.Body.String(), `"code":"bad_request"`) {
					t.Errorf("%s: 413 body %q lacks the bad_request envelope", tc.name, rr.Body)
				}
			}
		}
	}
	// The hot route must turn a declared over-limit length away without
	// reading (or allocating for) any of it.
	req := httptest.NewRequest("POST", "/oneapi/v4/cells/0/stats", nil)
	req.Body, req.ContentLength = unreadBody{t}, maxBodyBytes+1
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("declared over-limit stats body: status %d", rr.Code)
	}
	// A body shorter than it declared is a 400, not a hang or a panic.
	req = httptest.NewRequest("POST", "/oneapi/v4/cells/0/stats", strings.NewReader(`{"flows":`))
	req.ContentLength = 500
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Errorf("truncated stats body: status %d", rr.Code)
	}
}

// TestHTTPStatsBodyRefusals: what the hand-written report decoder turns
// away is a 400 bad_request like any other malformed body, and leaves
// the cell's BAI state untouched.
func TestHTTPStatsBodyRefusals(t *testing.T) {
	s := serverForTest()
	h := Handler(s)
	for _, body := range []string{
		`{"flows":`, `{"flows":{"1":{"bytes":1}}} trailing`, `{"flows":[]}`, `{"flows":{"x":{}}}`,
		`{"flows":{"1":{"bytes":1.5}}}`, `{"seq":"7"}`, `[]`, `"report"`, `{"flows":{"1":{"rbs":1e400}}}`,
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/oneapi/v4/cells/0/stats", strings.NewReader(body)))
		if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), `"code":"bad_request"`) ||
			!strings.Contains(rr.Body.String(), "decode stats report: ") {
			t.Errorf("stats body %q: %d %s", body, rr.Code, rr.Body)
		}
	}
	if s.lookup(0) != nil {
		t.Error("a refused report created its cell")
	}
}
