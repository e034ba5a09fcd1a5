package oneapi

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/flare-sim/flare/internal/core"
)

// TestOutsideInputKeepsCellServing: what a client or an eNodeB can send
// must not take a cell down. A stats row of 9e18 RBs for one byte is a
// valid report; it used to make every later BAI of the cell panic in
// the exact solver, leaking a scratch set each time. A ladder longer
// than the solver can index, or whose floor rung no cell can carry
// (1e300 bps), is refused at the open with a 400: the 1e300 floor used
// to be admitted and to hold every neighbour in its cell at level 0.
func TestOutsideInputKeepsCellServing(t *testing.T) {
	h := Handler(serverForTest())
	serve := func(method, path, body string) (rr *httptest.ResponseRecorder) {
		rr = httptest.NewRecorder()
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("%s %s %s panicked: %v", method, path, body, p)
			}
		}()
		h.ServeHTTP(rr, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rr
	}
	const sessions = "/oneapi/v4/cells/0/sessions"
	for _, body := range []string{
		`{"flow_id":1,"ladder_bps":[100000,250000,500000,1000000]}`,
		`{"flow_id":2,"ladder_bps":[100000]}`,
	} {
		if rr := serve("POST", sessions, body); rr.Code != http.StatusCreated {
			t.Fatalf("open %s: %d %s", body, rr.Code, rr.Body)
		}
	}
	long := make([]string, core.MaxLevels+1)
	for i := range long {
		long[i] = fmt.Sprint((i + 1) * 1000)
	}
	body := `{"flow_id":3,"ladder_bps":[` + strings.Join(long, ",") + `]}`
	if rr := serve("POST", "/oneapi/v4/cells/1/sessions", body); rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), `"code":"bad_request"`) {
		t.Errorf("open with a %d-level ladder: %d %s, want 400 bad_request", len(long), rr.Code, rr.Body)
	}

	// A SimLadder session climbs in a cell where a 1e300 floor was
	// refused.
	if rr := serve("POST", "/oneapi/v4/cells/2/sessions", `{"flow_id":4,"ladder_bps":[100000,250000,500000,1000000,2000000,3000000]}`); rr.Code != http.StatusCreated {
		t.Fatalf("open the SimLadder session: %d %s", rr.Code, rr.Body)
	}
	if rr := serve("POST", "/oneapi/v4/cells/2/sessions", `{"flow_id":5,"ladder_bps":[1e300]}`); rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), `"code":"bad_request"`) {
		t.Errorf("open with a 1e300 floor: %d %s, want 400 bad_request", rr.Code, rr.Body)
	}
	for seq := 1; seq <= 5; seq++ {
		report := fmt.Sprintf(`{"flows":{"4":{"bytes":1000000,"rbs":50000},"5":{"bytes":1000000,"rbs":50000}},"seq":%d}`, seq)
		if rr := serve("POST", "/oneapi/v4/cells/2/stats", report); rr.Code != http.StatusOK {
			t.Fatalf("cell 2 stats round %d: %d %s", seq, rr.Code, rr.Body)
		}
	}
	if rr := serve("GET", "/oneapi/v4/cells/2/assignments/4", ""); rr.Code != http.StatusOK || strings.Contains(rr.Body.String(), `"level":0`) {
		t.Errorf("SimLadder session after five rounds: %d %s, want a level above 0", rr.Code, rr.Body)
	}

	var sets0 int
	for seq := 1; seq <= 5; seq++ {
		if seq == 2 { // the first round may make the process's first set
			sets0, _ = core.SolverScratchStats()
		}
		rbs := "50000"
		if seq%2 == 0 {
			rbs = "9000000000000000000"
		}
		report := fmt.Sprintf(`{"flows":{"1":{"bytes":1000000,"rbs":50000},"2":{"bytes":1,"rbs":%s}},"seq":%d}`, rbs, seq)
		if rr := serve("POST", "/oneapi/v4/cells/0/stats", report); rr.Code != http.StatusOK {
			t.Errorf("stats round %d: %d %s", seq, rr.Code, rr.Body)
		}
	}
	if rr := serve("GET", "/oneapi/v4/cells/0/assignments/1", ""); rr.Code != http.StatusOK {
		t.Errorf("poll after the rounds: %d %s", rr.Code, rr.Body)
	}
	if sets, _ := core.SolverScratchStats(); sets != sets0 {
		t.Errorf("solver scratch sets %d -> %d over four more rounds of one cell", sets0, sets)
	}
}

// TestLongLadderRefusedBeforeAdmission: with admission on, a ladder
// longer than the controller registers is refused at the open (400),
// not priced by the admission predicate and parked on a full cell's
// queue, whose promotion could never register it.
func TestLongLadderRefusedBeforeAdmission(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.AdmissionControl = true
	s := NewServer(cfg, nil)
	h := Handler(s)
	serve := func(body string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/oneapi/v4/cells/0/sessions", strings.NewReader(body)))
		return rr
	}
	// One 3 Mbps floor fills the cell's admission budget.
	if rr := serve(`{"flow_id":1,"ladder_bps":[3000000,4500000]}`); rr.Code != http.StatusCreated {
		t.Fatalf("first open: %d %s", rr.Code, rr.Body)
	}
	if rr := serve(`{"flow_id":2,"ladder_bps":[3000000,4500000]}`); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("open into the full cell: %d %s, want 503", rr.Code, rr.Body)
	}
	s.CloseSession(0, 2) // leave the queue empty
	long := make([]string, core.MaxLevels+1)
	for i := range long {
		long[i] = fmt.Sprint(3_000_000 + i*1000)
	}
	rr := serve(`{"flow_id":3,"ladder_bps":[` + strings.Join(long, ",") + `]}`)
	if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), `"code":"bad_request"`) {
		t.Errorf("open with a %d-level ladder into a full cell: %d %s, want 400 bad_request", len(long), rr.Code, rr.Body)
	}
	if q := len(s.lookup(0).queue); q != 0 {
		t.Errorf("wait queue holds %d sessions after the refusal, want 0", q)
	}
}
