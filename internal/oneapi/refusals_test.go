package oneapi

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/flare-sim/flare/internal/has"
)

// TestRefusalTable holds the refusal table to one row per sentinel:
// every sentinel maps to its own code and back, and every code to one
// status.
func TestRefusalTable(t *testing.T) {
	sentinels := []error{ErrStaleReport, ErrUnknownSession, ErrUnknownCell, ErrNoAssignment,
		ErrSessionConflict, ErrAdmissionRejected, ErrDraining}
	if len(refusals) != len(sentinels) {
		t.Fatalf("%d refusal rows for %d sentinels", len(refusals), len(sentinels))
	}
	codes := map[string]error{}
	for _, sentinel := range sentinels {
		r, ok := refusalFor(sentinel)
		if !ok {
			t.Fatalf("no row for %v", sentinel)
		}
		if other, dup := codes[r.code]; dup {
			t.Errorf("code %q names both %v and %v", r.code, other, sentinel)
		}
		codes[r.code] = sentinel
		if back := errorForCode(r.code); back != sentinel {
			t.Errorf("code %q maps back to %v, want %v", r.code, back, sentinel)
		}
		// A wrapped sentinel is answered by the same row.
		if w, _ := refusalFor(errors.Join(errors.New("context"), sentinel)); w != r {
			t.Errorf("wrapped %v found row %+v, want %+v", sentinel, w, r)
		}
		if r.status < 400 || r.status > 599 {
			t.Errorf("%v answers status %d, not a refusal", sentinel, r.status)
		}
	}
	for _, code := range []string{CodeBadRequest, CodeInternal, ""} {
		if err := errorForCode(code); err != nil {
			t.Errorf("fallback code %q maps to sentinel %v", code, err)
		}
	}
	if _, ok := refusalFor(errors.New("unnamed")); ok {
		t.Error("an error that wraps no sentinel found a row")
	}
}

// TestEveryRouteNamesUnknownCellAndSession: a request about a cell the
// server does not hold, or a session it does not have, gets 404 and
// the code that names which — on every route that addresses one — so a
// plugin can tell it must re-open whichever route it was on.
func TestEveryRouteNamesUnknownCellAndSession(t *testing.T) {
	s := serverForTest()
	if _, err := s.Open(0, SessionRequest{FlowID: 1, LadderBps: has.SimLadder()}); err != nil {
		t.Fatal(err)
	}
	h := Handler(s)
	for _, tc := range []struct {
		name, method, path, body, code string
	}{
		{"poll unknown cell", "GET", "/oneapi/v4/cells/9/assignments/1", "", CodeUnknownCell},
		{"poll unknown session", "GET", "/oneapi/v4/cells/0/assignments/2", "", CodeUnknownSession},
		{"preferences unknown cell", "PUT", "/oneapi/v4/cells/9/sessions/1/preferences", `{"max_bps":1}`, CodeUnknownCell},
		{"preferences unknown session", "PUT", "/oneapi/v4/cells/0/sessions/2/preferences", `{"max_bps":1}`, CodeUnknownSession},
		{"handover unknown cell", "POST", "/oneapi/v4/cells/9/sessions/1/handover", `{"to_cell":3}`, CodeUnknownCell},
		{"handover unknown session", "POST", "/oneapi/v4/cells/0/sessions/2/handover", `{"to_cell":3}`, CodeUnknownSession},
		{"stats unknown cell", "POST", "/oneapi/v4/cells/9/stats", `{"flows":{"1":{"bytes":1000,"rbs":10}}}`, CodeUnknownCell},
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		var env ErrorResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s: body %q: %v", tc.name, rr.Body.String(), err)
		}
		if rr.Code != http.StatusNotFound || env.Code != tc.code {
			t.Errorf("%s: %d %q, want 404 %q", tc.name, rr.Code, env.Code, tc.code)
		}
	}
	// None of them left a cell behind: the refused handovers created
	// no target, and the refused report no reporting cell.
	for _, cell := range []int{3, 9} {
		if s.lookup(cell) != nil {
			t.Errorf("a refused request left cell %d held", cell)
		}
	}
}
