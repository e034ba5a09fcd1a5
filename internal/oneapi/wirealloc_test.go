package oneapi

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"testing"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
)

// bareWriter is the least a ResponseWriter can be, so that what
// AllocsPerRun counts below is the binding's own work and not a
// recorder's: it keeps one header map across requests and drops bodies.
type bareWriter struct {
	header http.Header
	status int
	wrote  int
}

func (w *bareWriter) Header() http.Header { return w.header }
func (w *bareWriter) WriteHeader(status int) {
	w.status = status
}
func (w *bareWriter) Write(b []byte) (int, error) {
	w.wrote += len(b)
	return len(b), nil
}

// replay is one request that can be served again and again without the
// harness allocating: the body reader is rewound, never rebuilt.
type replay struct {
	req  *http.Request
	body *bytes.Reader
	raw  []byte
}

func newReplay(method, path string, body []byte) *replay {
	rd := bytes.NewReader(body)
	return &replay{
		req: &http.Request{
			Method: method, URL: &url.URL{Path: path},
			Body: io.NopCloser(rd), ContentLength: int64(len(body)),
		},
		body: rd, raw: body,
	}
}

func (p *replay) serve(t *testing.T, h http.Handler, w *bareWriter) {
	p.body.Reset(p.raw)
	w.status = 0
	h.ServeHTTP(w, p.req)
	if w.status != http.StatusOK {
		t.Fatalf("%s %s: status %d", p.req.Method, p.req.URL.Path, w.status)
	}
}

// TestHandlerAllocationBudget pins what the two hot routes may allocate
// on top of the work they ask for, at the two bench/ plane shapes: a
// poll at most 2 objects (its response buffer, and room for a header
// entry), a stats exchange at most 6 beyond RunBAIReport's own — and
// the same 6 at 8 flows as at 128, so the cost of a report does not
// grow with the cell. A reflection codec, a pattern-matching mux or a
// per-flow allocation in the decoder each break it.
func TestHandlerAllocationBudget(t *testing.T) {
	for _, sessions := range []int{8, 128} {
		direct, served := serverForTest(), serverForTest()
		for _, s := range []*Server{direct, served} {
			for f := 0; f < sessions; f++ {
				if _, err := s.Open(0, SessionRequest{FlowID: f, LadderBps: has.SimLadder()}); err != nil {
					t.Fatal(err)
				}
			}
		}
		report := StatsReport{Flows: make(map[int]core.FlowStats, sessions)}
		for f := 0; f < sessions; f++ {
			report.Flows[f] = core.FlowStats{Bytes: int64(40_000 + 500*f), RBs: int64(5_000 + 20*f)}
		}
		body, err := appendStatsReport(nil, report)
		if err != nil {
			t.Fatal(err)
		}
		h := Handler(served)
		w := &bareWriter{header: http.Header{}}
		stats := newReplay(http.MethodPost, "/oneapi/v4/cells/0/stats", body)
		poll := newReplay(http.MethodGet, "/oneapi/v4/cells/0/assignments/3", nil)

		// Let both servers' controllers settle before counting.
		for i := 0; i < 30; i++ {
			if _, err := direct.RunBAIReport(0, report, nil); err != nil {
				t.Fatal(err)
			}
			stats.serve(t, h, w)
		}
		own := testing.AllocsPerRun(50, func() {
			if _, err := direct.RunBAIReport(0, report, nil); err != nil {
				t.Fatal(err)
			}
		})
		viaHandler := testing.AllocsPerRun(50, func() { stats.serve(t, h, w) })
		if extra := viaHandler - own; extra > 6 {
			t.Errorf("%d flows: stats POST allocates %.0f objects, RunBAIReport alone %.0f: %.0f for the binding, budget 6",
				sessions, viaHandler, own, extra)
		}
		perPoll := testing.AllocsPerRun(200, func() { poll.serve(t, h, w) })
		if perPoll > 2 {
			t.Errorf("%d flows: poll allocates %.0f objects, budget 2", sessions, perPoll)
		}
		t.Logf("%d flows: poll %.0f, stats POST %.0f of which RunBAIReport %.0f (%d B in)", sessions, perPoll, viaHandler, own, len(body))
	}
}
