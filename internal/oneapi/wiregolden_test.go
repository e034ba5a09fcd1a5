package oneapi

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
)

// The wire golden pins what the HTTP binding answers, byte for byte:
// one exchange per route and per error class, recorded from the
// reflection-JSON / ServeMux binding before the hand-written codecs and
// the flat route table replaced it. Re-capture (only when the wire
// contract is meant to change) with:
//
//	go test ./internal/oneapi -run TestWireGolden -update-wire-golden
var updateWireGolden = flag.Bool("update-wire-golden", false, "rewrite testdata/wire_golden.txt from the current handler")

// wireExchange is one request of the golden transcript.
type wireExchange struct {
	name, method, path, body string
}

// wireScene is a fresh server plus the exchanges played against it in
// order; prepare runs in-process before the first exchange.
type wireScene struct {
	name      string
	cfg       func(*core.Config)
	prepare   func(t *testing.T, s *Server)
	exchanges []wireExchange
}

const goldenLadder = `[200000,400000,800000,1500000,3000000]`

func wireScenes() []wireScene {
	open := func(flow int) string {
		return fmt.Sprintf(`{"flow_id":%d,"ladder_bps":%s}`, flow, goldenLadder)
	}
	mustOpen := func(cell int, flows ...int) func(*testing.T, *Server) {
		return func(t *testing.T, s *Server) {
			for _, f := range flows {
				if err := s.OpenSession(cell, SessionRequest{FlowID: f, LadderBps: has.SimLadder()}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return []wireScene{
		{
			name: "lifecycle",
			exchanges: []wireExchange{
				{"open created", "POST", "/oneapi/v4/cells/0/sessions", open(3)},
				{"open idempotent", "POST", "/oneapi/v4/cells/0/sessions", open(3)},
				{"open conflict", "POST", "/oneapi/v4/cells/0/sessions", `{"flow_id":3,"ladder_bps":[100000,900000]}`},
				{"open empty ladder", "POST", "/oneapi/v4/cells/0/sessions", `{"flow_id": 1, "ladder_bps": []}`},
				{"open malformed", "POST", "/oneapi/v4/cells/0/sessions", `{"flow_id":`},
				{"open beta past its bound", "POST", "/oneapi/v4/cells/0/sessions", `{"flow_id":1,"ladder_bps":[200000,400000],"preferences":{"beta":1e17}}`},
				{"poll before first BAI", "GET", "/oneapi/v4/cells/0/assignments/3", ""},
				{"stats unsequenced", "POST", "/oneapi/v4/cells/0/stats", `{"flows":{"3":{"bytes":1000000,"rbs":50000}},"num_data_flows":0}`},
				{"stats sequenced with hint", "POST", "/oneapi/v4/cells/0/stats", `{"flows":{"3":{"bytes":1000000,"rbs":50000,"bytes_per_rb_hint":21.5}},"num_data_flows":2,"seq":5}`},
				{"stats stale seq", "POST", "/oneapi/v4/cells/0/stats", `{"flows":{"3":{"bytes":1000000,"rbs":50000}},"num_data_flows":0,"seq":5}`},
				{"stats empty body", "POST", "/oneapi/v4/cells/0/stats", ""},
				{"stats no flows", "POST", "/oneapi/v4/cells/7/stats", `{}`},
				{"poll", "GET", "/oneapi/v4/cells/0/assignments/3", ""},
				{"poll head", "HEAD", "/oneapi/v4/cells/0/assignments/3", ""},
				{"poll unknown cell", "GET", "/oneapi/v4/cells/99/assignments/3", ""},
				{"poll unknown session", "GET", "/oneapi/v4/cells/0/assignments/4", ""},
				{"preferences", "PUT", "/oneapi/v4/cells/0/sessions/3/preferences", `{"max_bps":250000}`},
				{"preferences unknown session", "PUT", "/oneapi/v4/cells/0/sessions/4/preferences", `{"max_bps":1}`},
				{"preferences unknown cell", "PUT", "/oneapi/v4/cells/99/sessions/4/preferences", `{}`},
				{"preferences malformed", "PUT", "/oneapi/v4/cells/0/sessions/3/preferences", `[`},
				{"preferences theta past its bound", "PUT", "/oneapi/v4/cells/0/sessions/3/preferences", `{"theta_bps":1e300}`},
				{"handover", "POST", "/oneapi/v4/cells/0/sessions/3/handover", `{"to_cell":1}`},
				{"poll after handover", "GET", "/oneapi/v4/cells/1/assignments/3", ""},
				{"handover unknown session", "POST", "/oneapi/v4/cells/0/sessions/3/handover", `{"to_cell":1}`},
				{"handover unknown cell", "POST", "/oneapi/v4/cells/99/sessions/3/handover", `{"to_cell":1}`},
				{"handover same cell", "POST", "/oneapi/v4/cells/1/sessions/3/handover", `{"to_cell":1}`},
				{"handover malformed", "POST", "/oneapi/v4/cells/1/sessions/3/handover", `nope`},
				{"close", "DELETE", "/oneapi/v4/cells/1/sessions/3", ""},
				{"close again", "DELETE", "/oneapi/v4/cells/1/sessions/3", ""},
				{"poll after close", "GET", "/oneapi/v4/cells/1/assignments/3", ""},
			},
		},
		{
			name: "routing",
			exchanges: []wireExchange{
				{"sessions wrong method", "GET", "/oneapi/v4/cells/0/sessions", ""},
				{"session wrong method", "GET", "/oneapi/v4/cells/0/sessions/1", ""},
				{"preferences wrong method", "POST", "/oneapi/v4/cells/0/sessions/1/preferences", `{}`},
				{"handover wrong method", "GET", "/oneapi/v4/cells/0/sessions/1/handover", ""},
				{"stats wrong method", "GET", "/oneapi/v4/cells/0/stats", ""},
				{"poll wrong method", "POST", "/oneapi/v4/cells/0/assignments/1", ""},
				{"wrong method beats bad id", "GET", "/oneapi/v4/cells/abc/stats", ""},
				{"unknown path root", "GET", "/", ""},
				{"unknown path version", "GET", "/oneapi/v3/cells/0/stats", ""},
				{"unknown path cell only", "GET", "/oneapi/v4/cells/0", ""},
				{"unknown path leaf", "POST", "/oneapi/v4/cells/0/nope", ""},
				{"unknown path no flow", "GET", "/oneapi/v4/cells/0/assignments", ""},
				{"unknown path trailing slash", "POST", "/oneapi/v4/cells/0/stats/", `{}`},
				{"unknown path extra segment", "GET", "/oneapi/v4/cells/0/assignments/1/extra", ""},
				{"unknown path stats batch", "POST", "/oneapi/v4/stats/batch", `{}`},
				{"unknown path batch leaf", "POST", "/oneapi/v4/stats/batches", `{}`},
				{"sessions non-integer cell", "POST", "/oneapi/v4/cells/abc/sessions", ""},
				{"stats non-integer cell", "POST", "/oneapi/v4/cells/1.5/stats", `{}`},
				{"close non-integer flow", "DELETE", "/oneapi/v4/cells/0/sessions/x", ""},
				{"preferences non-integer cell", "PUT", "/oneapi/v4/cells/x/sessions/1/preferences", `{}`},
				{"handover non-integer flow", "POST", "/oneapi/v4/cells/0/sessions/1e3/handover", `{"to_cell":1}`},
				{"poll non-integer flow", "GET", "/oneapi/v4/cells/0/assignments/0x10", ""},
				{"poll overflowing cell", "GET", "/oneapi/v4/cells/99999999999999999999/assignments/1", ""},
				{"poll negative ids", "GET", "/oneapi/v4/cells/-1/assignments/-2", ""},
				{"poll signed id", "GET", "/oneapi/v4/cells/+0/assignments/1", ""},
			},
		},
		{
			name:    "draining",
			prepare: func(t *testing.T, s *Server) { mustOpen(0, 1)(t, s); s.BeginDrain() },
			exchanges: []wireExchange{
				{"open while draining", "POST", "/oneapi/v4/cells/0/sessions", open(2)},
				{"stats while draining", "POST", "/oneapi/v4/cells/0/stats", `{"flows":{"1":{"bytes":1,"rbs":1}}}`},
				{"poll while draining", "GET", "/oneapi/v4/cells/0/assignments/1", ""},
				{"close while draining", "DELETE", "/oneapi/v4/cells/0/sessions/1", ""},
			},
		},
		{
			name: "admission",
			cfg:  func(c *core.Config) { c.AdmissionControl = true; c.BAI = 2500_000_000 },
			exchanges: []wireExchange{
				{"open refused by admission", "POST", "/oneapi/v4/cells/0/sessions", `{"flow_id":1,"ladder_bps":[30000000,36000000]}`},
				{"open floor no cell can carry", "POST", "/oneapi/v4/cells/0/sessions", `{"flow_id":1,"ladder_bps":[4000000000,8000000000]}`},
				{"open ladder too long", "POST", "/oneapi/v4/cells/0/sessions", longLadderOpen(2, 4_000_000_000)},
			},
		},
		{
			name: "partial enforcement",
			prepare: func(t *testing.T, s *Server) {
				mustOpen(0, 1, 2)(t, s)
				s.SetPCEF(PCEFFunc(func(flow int, _ float64) error {
					if flow == 2 {
						return fmt.Errorf("pcef: bearer <2> modify \"rejected\" & dropped\t\u2028(caf\u00e9 \xff)")
					}
					return nil
				}))
			},
			exchanges: []wireExchange{
				{"stats with failed install", "POST", "/oneapi/v4/cells/0/stats", `{"flows":{"1":{"bytes":1000000,"rbs":25000},"2":{"bytes":1000000,"rbs":25000}}}`},
				{"poll failed flow", "GET", "/oneapi/v4/cells/0/assignments/2", ""},
			},
		},
		{
			name:    "unusable stats rows",
			prepare: mustOpen(0, 1, 2),
			exchanges: []wireExchange{
				{"stats", "POST", "/oneapi/v4/cells/0/stats", `{"flows":{"1":{"bytes":1000000,"rbs":50000},"2":{"bytes":1000000,"rbs":50000}}}`},
				{"stats row of more RBs per byte than a TTI holds", "POST", "/oneapi/v4/cells/0/stats", `{"flows":{"1":{"bytes":1000000,"rbs":50000},"2":{"bytes":1,"rbs":9000000000000000000}}}`},
				{"stats hint of fewer bytes per RB than a TTI holds", "POST", "/oneapi/v4/cells/0/stats", `{"flows":{"1":{"bytes":1000000,"rbs":50000},"2":{"bytes":0,"rbs":0,"bytes_per_rb_hint":1e-300}}}`},
			},
		},
	}
}

// longLadderOpen is an open request for flow whose ladder has one level
// more than the controller registers, rising by 1 kbps from floor.
func longLadderOpen(flow, floor int) string {
	rates := make([]string, core.MaxLevels+1)
	for i := range rates {
		rates[i] = fmt.Sprint(floor + i*1000)
	}
	return fmt.Sprintf(`{"flow_id":%d,"ladder_bps":[%s]}`, flow, strings.Join(rates, ","))
}

// playWireScenes renders the transcript the golden file holds.
func playWireScenes(t *testing.T) string {
	var b strings.Builder
	for _, sc := range wireScenes() {
		cfg := core.DefaultConfig()
		cfg.Delta = 1
		if sc.cfg != nil {
			sc.cfg(&cfg)
		}
		s := NewServer(cfg, nil)
		if sc.prepare != nil {
			sc.prepare(t, s)
		}
		h := Handler(s)
		for _, ex := range sc.exchanges {
			req := httptest.NewRequest(ex.method, ex.path, strings.NewReader(ex.body))
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			fmt.Fprintf(&b, "== %s: %s\n> %s %s\n", sc.name, ex.name, ex.method, ex.path)
			if ex.body != "" {
				fmt.Fprintf(&b, "> %s\n", ex.body)
			}
			fmt.Fprintf(&b, "< HTTP %d %s\n", rr.Code, http.StatusText(rr.Code))
			for _, k := range []string{"Content-Type", "Allow", "Retry-After"} {
				for _, v := range rr.Header()[k] {
					fmt.Fprintf(&b, "< %s: %s\n", k, v)
				}
			}
			fmt.Fprintf(&b, "< %q\n\n", rr.Body.String())
		}
	}
	return b.String()
}

func TestWireGolden(t *testing.T) {
	got := playWireScenes(t)
	path := filepath.Join("testdata", "wire_golden.txt")
	if *updateWireGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-wire-golden to capture): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			from := i - 6
			if from < 0 {
				from = 0
			}
			w := "<end of golden>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("wire transcript diverges from %s at line %d:\n%s\n got: %s\nwant: %s",
				path, i+1, strings.Join(gl[from:i], "\n"), gl[i], w)
		}
	}
	t.Fatalf("wire transcript is shorter than %s (%d vs %d lines)", path, len(gl), len(wl))
}
