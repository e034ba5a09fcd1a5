package oneapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/faults"
	"github.com/flare-sim/flare/internal/has"
)

// fastClientConfig keeps retry tests quick: millisecond backoff.
func fastClientConfig() ClientConfig {
	return ClientConfig{
		RequestTimeout: 2 * time.Second,
		MaxRetries:     3,
		BackoffBase:    time.Millisecond,
		BackoffMax:     4 * time.Millisecond,
	}
}

// TestRunBAIPartialPCEFFailure is the regression test for the
// partial-GBR-install bug: a PCEF that fails mid-BAI must not leave the
// cell half-updated. Failed flows keep their previous assignment and
// install sequence; healthy flows commit.
func TestRunBAIPartialPCEFFailure(t *testing.T) {
	s := serverForTest()
	for _, flow := range []int{1, 2} {
		if _, err := s.Open(0, SessionRequest{FlowID: flow, LadderBps: has.SimLadder()}); err != nil {
			t.Fatal(err)
		}
	}
	report := StatsReport{Flows: map[int]core.FlowStats{
		1: {Bytes: 1_000_000, RBs: 25_000},
		2: {Bytes: 1_000_000, RBs: 25_000},
	}}

	// BAI 1: both installs succeed.
	healthy := perFlow(func(int, float64) error { return nil })
	if _, err := s.RunBAIReport(0, report, healthy); err != nil {
		t.Fatal(err)
	}
	before, err := s.AssignmentErr(0, 2)
	if err != nil {
		t.Fatal(err)
	}

	// BAIs 2 and 3: flow 2's GBR install fails at the PCEF.
	flaky := perFlow(func(flowID int, gbr float64) error {
		if flowID == 2 {
			return fmt.Errorf("pcef: bearer modify rejected")
		}
		return nil
	})
	for i := 0; i < 2; i++ {
		resp, err := s.RunBAIReport(0, report, flaky)
		var ee *EnforceError
		if !errors.As(err, &ee) {
			t.Fatalf("BAI with failing PCEF returned %v, want *EnforceError", err)
		}
		if len(ee.Failed) != 1 || ee.Failed[0].FlowID != 2 {
			t.Fatalf("failed set %+v", ee.Failed)
		}
		if len(resp.Failed) != 1 || resp.Failed[0].FlowID != 2 {
			t.Fatalf("response failed set %+v", resp.Failed)
		}
		// The healthy flow committed in the same BAI.
		committed := false
		for _, a := range resp.Assignments {
			if a.FlowID == 2 {
				t.Fatalf("failed flow 2 listed as committed: %+v", a)
			}
			if a.FlowID == 1 {
				committed = true
			}
		}
		if !committed {
			t.Fatal("healthy flow 1 did not commit")
		}
	}

	// Flow 1 advanced to BAI 3; flow 2 kept its BAI-1 assignment, and
	// its age (CellSeq − BAISeq) exposes the enforcement failures to a
	// polling plugin.
	a1, err := s.AssignmentErr(0, 1)
	if err != nil || a1.BAISeq != 3 {
		t.Fatalf("flow 1 assignment %+v err %v", a1, err)
	}
	a2, err := s.AssignmentErr(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a2.BAISeq != 1 || a2.RateBps != before.RateBps {
		t.Fatalf("failed flow lost its previous assignment: %+v (was %+v)", a2, before)
	}
	if a2.CellSeq != 3 {
		t.Fatalf("staleness not exposed: %+v", a2)
	}
}

// TestRunBAIFailedDowngradePublished is the regression test for the
// overload error path: when a PCEF install fails for an assignment
// *lower* than the flow's current one, the lower assignment must still
// be published to polls. Keeping the stale high assignment visible is
// what starves a saturated cell — plugins would keep requesting a rate
// the optimiser just revoked. The install sequence keeps lagging either
// way, so the staleness signal survives. A failed *upgrade* keeps the
// previous (lower) assignment, as before.
func TestRunBAIFailedDowngradePublished(t *testing.T) {
	s := serverForTest()
	if _, err := s.Open(0, SessionRequest{FlowID: 1, LadderBps: has.SimLadder()}); err != nil {
		t.Fatal(err)
	}
	solo := StatsReport{Flows: map[int]core.FlowStats{
		1: {Bytes: 1_000_000, RBs: 50_000},
	}}
	// Crowded report: two newcomers join, and the margined RB budget
	// cannot hold flow 1 at its solo level alongside them — the
	// optimiser must assign it a lower one.
	crowded := StatsReport{Flows: map[int]core.FlowStats{
		1: {Bytes: 1_000_000, RBs: 25_000},
		2: {Bytes: 1_000_000, RBs: 25_000},
		3: {Bytes: 1_000_000, RBs: 25_000},
	}}

	// BAI 1: flow 1 alone in the cell, healthy PCEF — a high assignment.
	healthy := perFlow(func(int, float64) error { return nil })
	if _, err := s.RunBAIReport(0, solo, healthy); err != nil {
		t.Fatal(err)
	}
	high, err := s.AssignmentErr(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, flow := range []int{2, 3} {
		if _, err := s.Open(0, SessionRequest{FlowID: flow, LadderBps: has.SimLadder()}); err != nil {
			t.Fatal(err)
		}
	}

	// The solver is deterministic, so a mirror server fed the same
	// reports through a healthy PCEF reveals the assignment flow 1
	// *would* have gotten — that is what the broken server must publish.
	mirror := serverForTest()
	if _, err := mirror.Open(0, SessionRequest{FlowID: 1, LadderBps: has.SimLadder()}); err != nil {
		t.Fatal(err)
	}
	if _, err := mirror.RunBAIReport(0, solo, healthy); err != nil {
		t.Fatal(err)
	}
	for _, flow := range []int{2, 3} {
		if _, err := mirror.Open(0, SessionRequest{FlowID: flow, LadderBps: has.SimLadder()}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mirror.RunBAIReport(0, crowded, healthy); err != nil {
		t.Fatal(err)
	}
	want, err := mirror.AssignmentErr(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want.RateBps >= high.RateBps {
		t.Fatalf("test premise broken: crowded rate %.0f not below solo rate %.0f", want.RateBps, high.RateBps)
	}

	// BAI 2: the cell fills up, flow 1's (now lower) install fails.
	broken := perFlow(func(flowID int, gbr float64) error {
		if flowID == 1 {
			return fmt.Errorf("pcef: bearer modify rejected")
		}
		return nil
	})
	resp, err := s.RunBAIReport(0, crowded, broken)
	var ee *EnforceError
	if !errors.As(err, &ee) {
		t.Fatalf("BAI with failing PCEF returned %v, want *EnforceError", err)
	}
	for _, f := range resp.Failed {
		if f.FlowID != 1 {
			t.Fatalf("unexpected enforcement failure %+v", f)
		}
	}
	for _, a := range resp.Assignments {
		if a.FlowID == 1 {
			t.Fatalf("failed flow 1 listed as committed: %+v", a)
		}
	}

	a1, err := s.AssignmentErr(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a1.RateBps != want.RateBps {
		t.Fatalf("failed downgrade not published: polls see %.0f bps, want %.0f (stale high was %.0f)",
			a1.RateBps, want.RateBps, high.RateBps)
	}
	if a1.BAISeq != 1 || a1.CellSeq != 2 {
		t.Fatalf("staleness signal lost on published downgrade: %+v", a1)
	}

	// BAI 3: flow 2 leaves, flow 1's assignment rises again — but the
	// install still fails, so the failed *upgrade* must NOT be published.
	if _, err := s.RunBAIReport(0, solo, broken); err == nil {
		t.Fatal("failing PCEF reported success")
	}
	a1, err = s.AssignmentErr(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a1.RateBps != want.RateBps {
		t.Fatalf("failed upgrade leaked to polls: %.0f bps, want still %.0f", a1.RateBps, want.RateBps)
	}
	if a1.BAISeq != 1 || a1.CellSeq != 3 {
		t.Fatalf("install sequence advanced without an install: %+v", a1)
	}
}

// TestRunBAIRejectsStaleReports: sequenced statistics reports must be
// applied at most once and in order; unsequenced reports (Seq 0) keep
// the legacy behaviour.
func TestRunBAIRejectsStaleReports(t *testing.T) {
	s := serverForTest()
	if _, err := s.Open(0, SessionRequest{FlowID: 1, LadderBps: has.SimLadder()}); err != nil {
		t.Fatal(err)
	}
	report := StatsReport{Flows: map[int]core.FlowStats{1: {Bytes: 500_000, RBs: 20_000}}}

	report.Seq = 1
	if _, err := s.RunBAIReport(0, report, nil); err != nil {
		t.Fatal(err)
	}
	// A duplicate (retransmitted) report is rejected without running a BAI.
	if _, err := s.RunBAIReport(0, report, nil); !errors.Is(err, ErrStaleReport) {
		t.Fatalf("duplicate seq accepted: %v", err)
	}
	// An older report arriving late is rejected too.
	report.Seq = 0
	report2 := report
	report2.Seq = 5
	if _, err := s.RunBAIReport(0, report2, nil); err != nil {
		t.Fatal(err)
	}
	report2.Seq = 3
	if _, err := s.RunBAIReport(0, report2, nil); !errors.Is(err, ErrStaleReport) {
		t.Fatalf("out-of-order seq accepted: %v", err)
	}
	// Unsequenced reports are always accepted.
	if _, err := s.RunBAIReport(0, report, nil); err != nil {
		t.Fatal(err)
	}
	if n, _, _ := s.LastSolve(0); n != 3 {
		t.Fatalf("%d BAIs ran, want 3 (stale reports must not solve)", n)
	}
}

// TestHTTPStaleReportConflict checks the wire mapping: a stale sequenced
// report answers 409 with the stale_report code, and the eNB-side helper
// surfaces it as ErrStaleReport.
func TestHTTPStaleReportConflict(t *testing.T) {
	s := serverForTest()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	if _, err := s.Open(0, SessionRequest{FlowID: 1, LadderBps: has.SimLadder()}); err != nil {
		t.Fatal(err)
	}
	report := StatsReport{
		Seq:   9,
		Flows: map[int]core.FlowStats{1: {Bytes: 500_000, RBs: 20_000}},
	}
	resp, err := ReportStatsContext(context.Background(), ts.Client(), ts.URL, 0, report)
	if err != nil {
		t.Fatal(err)
	}
	if resp.BAISeq != 1 || len(resp.Assignments) != 1 {
		t.Fatalf("stats response %+v", resp)
	}
	if _, err := ReportStatsContext(context.Background(), ts.Client(), ts.URL, 0, report); !errors.Is(err, ErrStaleReport) {
		t.Fatalf("retransmitted report over HTTP: %v", err)
	}
}

// TestHTTPErrorPaths exercises the binding's failure surface: malformed
// JSON, non-integer path segments, and unknown cells/flows, each with
// its machine-readable error code.
func TestHTTPErrorPaths(t *testing.T) {
	s := serverForTest()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	client := NewClientWithConfig(ts.URL, 0, 1, ts.Client(), fastClientConfig())

	post := func(path, body string) (int, ErrorResponse) {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		e := respErr(resp)
		drainClose(resp.Body)
		var he *httpError
		errors.As(e, &he)
		return resp.StatusCode, he.envelope
	}

	// Malformed JSON.
	if code, env := post("/oneapi/v4/cells/0/sessions", "{not json"); code != 400 || env.Code != CodeBadRequest {
		t.Fatalf("malformed session JSON: %d %+v", code, env)
	}
	if code, env := post("/oneapi/v4/cells/0/stats", "][ "); code != 400 || env.Code != CodeBadRequest {
		t.Fatalf("malformed stats JSON: %d %+v", code, env)
	}
	// Non-integer path segments.
	if code, _ := post("/oneapi/v4/cells/zero/sessions", "{}"); code != 400 {
		t.Fatalf("non-integer cell: %d", code)
	}
	resp, err := ts.Client().Get(ts.URL + "/oneapi/v4/cells/0/assignments/seven")
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp.Body)
	if resp.StatusCode != 400 {
		t.Fatalf("non-integer flow: %d", resp.StatusCode)
	}
	// Unknown cell (no session ever opened there).
	_, _, err = NewClientWithConfig(ts.URL, 42, 1, ts.Client(), fastClientConfig()).Poll()
	if !errors.Is(err, ErrUnknownCell) {
		t.Fatalf("unknown cell poll: %v", err)
	}
	// Known cell, unknown flow.
	if err := client.Open(has.SimLadder(), core.Preferences{}); err != nil {
		t.Fatal(err)
	}
	_, _, err = NewClientWithConfig(ts.URL, 0, 99, ts.Client(), fastClientConfig()).Poll()
	if !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("unknown flow poll: %v", err)
	}
}

// TestClientRetriesTransientFailures: 5xx answers are retried with
// backoff until the server recovers; the recovery counters record it.
func TestClientRetriesTransientFailures(t *testing.T) {
	s := serverForTest()
	inner := Handler(s)
	var failures atomic.Int32
	failures.Store(2)
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failures.Load() > 0 {
			failures.Add(-1)
			http.Error(w, "upstream hiccup", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(flaky)
	defer ts.Close()

	c := NewClientWithConfig(ts.URL, 0, 1, ts.Client(), fastClientConfig())
	if err := c.Open(has.SimLadder(), core.Preferences{}); err != nil {
		t.Fatalf("open did not survive transient 503s: %v", err)
	}
	st := c.Stats()
	if st.Retries != 2 || st.Failures != 0 {
		t.Fatalf("stats %+v, want 2 retries 0 failures", st)
	}
}

// TestClientExhaustsRetriesAgainstDeadServer: a hard-down server yields
// an error after MaxRetries+1 attempts — bounded, not infinite.
func TestClientExhaustsRetriesAgainstDeadServer(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "dead", http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := NewClientWithConfig(ts.URL, 0, 1, ts.Client(), fastClientConfig())
	if err := c.Open(has.SimLadder(), core.Preferences{}); err == nil {
		t.Fatal("open succeeded against a dead server")
	}
	if got := hits.Load(); got != 4 {
		t.Fatalf("%d attempts, want MaxRetries+1 = 4", got)
	}
	if st := c.Stats(); st.Failures != 1 || st.Retries != 3 {
		t.Fatalf("stats %+v", st)
	}
}

// TestClientRetryJitterPerFlow: clients of distinct flows draw distinct
// backoff delays, so they do not retry in lockstep after a shared
// failure, while one flow's delays repeat from client to client.
func TestClientRetryJitterPerFlow(t *testing.T) {
	delays := func(cellID, flowID int) []time.Duration {
		c := NewClientWithConfig("http://unused", cellID, flowID, nil, DefaultClientConfig())
		var d []time.Duration
		for attempt := 1; attempt <= 3; attempt++ {
			d = append(d, c.backoffLocked(attempt))
		}
		return d
	}
	first := delays(0, 1)
	if again := delays(0, 1); !slices.Equal(first, again) {
		t.Fatalf("flow 1's delays %v, then %v", first, again)
	}
	for _, other := range [][2]int{{0, 2}, {1, 1}, {1, 0}} {
		if d := delays(other[0], other[1]); d[0] == first[0] {
			t.Errorf("cell %d flow %d draws the first retry delay %v of cell 0 flow 1", other[0], other[1], d[0])
		}
	}
}

// TestClientBlackoutAndRecovery drives the plugin client through an
// injected control-plane blackout using the faults RoundTripper: inside
// the window every request is dropped at the transport; after it ends
// the same client works again untouched.
func TestClientBlackoutAndRecovery(t *testing.T) {
	s := serverForTest()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	var now atomic.Int64 // simulated time in seconds
	inj := faults.New(faults.Config{
		Seed:      1,
		Blackouts: []faults.Window{{From: 10 * time.Second, To: 20 * time.Second}},
	})
	httpc := &http.Client{Transport: faults.NewRoundTripper(
		ts.Client().Transport, inj,
		func() time.Duration { return time.Duration(now.Load()) * time.Second },
	)}
	c := NewClientWithConfig(ts.URL, 0, 1, httpc, fastClientConfig())

	// Before the blackout: healthy open + BAI + poll.
	if err := c.Open(has.SimLadder(), core.Preferences{}); err != nil {
		t.Fatal(err)
	}
	report := StatsReport{Flows: map[int]core.FlowStats{1: {Bytes: 500_000, RBs: 20_000}}}
	if _, err := s.RunBAIReport(0, report, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Poll(); err != nil || !ok {
		t.Fatalf("pre-blackout poll: ok=%v err=%v", ok, err)
	}

	// Inside the blackout: every attempt (including retries) drops.
	now.Store(15)
	if _, _, err := c.Poll(); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("blackout poll error = %v, want ErrInjected", err)
	}

	// After the blackout: recovery with no manual intervention.
	now.Store(25)
	a, ok, err := c.Poll()
	if err != nil || !ok {
		t.Fatalf("post-blackout poll: ok=%v err=%v", ok, err)
	}
	if a.RateBps <= 0 {
		t.Fatalf("post-blackout assignment %+v", a)
	}
	if n := inj.Counts().BlackoutDrops; n == 0 {
		t.Fatal("injector recorded no blackout drops")
	}
}

// TestClientReopensAfterServerRestart: a restarted OneAPI server has an
// empty session table; the client's next poll detects unknown-session,
// re-registers with the remembered ladder and preferences, and carries
// on.
func TestClientReopensAfterServerRestart(t *testing.T) {
	s1 := serverForTest()
	var current atomic.Pointer[http.Handler]
	h1 := Handler(s1)
	current.Store(&h1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*current.Load()).ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := NewClientWithConfig(ts.URL, 0, 1, ts.Client(), fastClientConfig())
	prefs := core.Preferences{MaxBps: 700_000}
	if err := c.Open(has.SimLadder(), prefs); err != nil {
		t.Fatal(err)
	}
	report := StatsReport{Flows: map[int]core.FlowStats{1: {Bytes: 500_000, RBs: 20_000}}}
	if _, err := s1.RunBAIReport(0, report, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Poll(); err != nil || !ok {
		t.Fatalf("pre-restart poll: ok=%v err=%v", ok, err)
	}

	// "Restart" the server: fresh process, empty state.
	s2 := serverForTest()
	h2 := Handler(s2)
	current.Store(&h2)

	// The next poll transparently re-opens; with no BAI yet on the new
	// server it reports "no assignment" rather than an error.
	if _, ok, err := c.Poll(); err != nil || ok {
		t.Fatalf("post-restart poll: ok=%v err=%v", ok, err)
	}
	if st := c.Stats(); st.Reopens != 1 {
		t.Fatalf("stats %+v, want 1 reopen", st)
	}
	// The re-opened session kept its preferences: the 700 kbps cap binds.
	var last core.Assignment
	for i := 0; i < 20; i++ {
		resp, err := s2.RunBAIReport(0, report, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Assignments) != 1 {
			t.Fatalf("new server sees %d sessions after re-open", len(resp.Assignments))
		}
		last = resp.Assignments[0]
	}
	if last.RateBps > 700_000 {
		t.Fatalf("re-open lost preferences: assigned %v", last.RateBps)
	}
	a, ok, err := c.Poll()
	if err != nil || !ok || a.RateBps <= 0 {
		t.Fatalf("post-recovery poll: %+v ok=%v err=%v", a, ok, err)
	}
}

// TestMiddlewareBlackoutOverHTTP wraps the whole OneAPI handler in the
// server-side fault middleware: a blackout makes the API answer 503 to
// everyone, which the retrying client treats as transient.
func TestMiddlewareBlackoutOverHTTP(t *testing.T) {
	s := serverForTest()
	var now atomic.Int64
	inj := faults.New(faults.Config{
		Seed:      2,
		Blackouts: []faults.Window{{From: 0, To: 5 * time.Second}},
	})
	ts := httptest.NewServer(faults.MiddlewareClock(inj,
		func() time.Duration { return time.Duration(now.Load()) * time.Second },
		Handler(s)))
	defer ts.Close()

	c := NewClientWithConfig(ts.URL, 0, 1, ts.Client(), fastClientConfig())
	if err := c.Open(has.SimLadder(), core.Preferences{}); err == nil {
		t.Fatal("open succeeded through a server-side blackout")
	}
	now.Store(10)
	if err := c.Open(has.SimLadder(), core.Preferences{}); err != nil {
		t.Fatalf("open after blackout lifted: %v", err)
	}
}
