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
// must not take a cell down. A session whose only rung is 1e300 is a
// valid ladder, and a stats row of 9e18 RBs for one byte is a valid
// report; both used to make every later BAI of the cell panic in the
// exact solver, leaking a scratch set each time. A ladder longer than
// the solver can index is refused at the open with a 400.
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
		`{"flow_id":2,"ladder_bps":[1e300]}`,
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
