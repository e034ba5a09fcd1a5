package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/faults"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/oneapi"
)

// TestMetricsEndpoint drives the assembled oneapiserver handler through
// a session-open + stats-report + poll exchange and asserts that
// /metrics serves the solver-latency histogram, the install/retry
// counters and the process gauges, and that /debug/flare returns the recorded event tail.
func TestMetricsEndpoint(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Delta = 1
	handler, rec, _ := buildHandler(cfg, faults.Config{}, 0)
	srv := httptest.NewServer(handler)
	defer srv.Close()

	client := oneapi.NewClient(srv.URL, 0, 1, srv.Client())
	if err := client.Open(has.SimLadder(), core.Preferences{}); err != nil {
		t.Fatalf("open: %v", err)
	}
	// One BAI: report per-flow radio accounting, then poll the result.
	report := oneapi.StatsReport{
		Flows:        map[int]core.FlowStats{1: {Bytes: 2_000_000, RBs: 8000}},
		NumDataFlows: 0,
	}
	if _, err := oneapi.ReportStatsContext(context.Background(), srv.Client(), srv.URL, 0, report); err != nil {
		t.Fatalf("report: %v", err)
	}
	if _, ok, err := client.Poll(); err != nil || !ok {
		t.Fatalf("poll: ok=%v err=%v", ok, err)
	}

	body := get(t, srv, "/metrics")
	for _, want := range []string{
		"flare_bai_solves_total 1",
		"flare_installs_total 1",
		"flare_client_retries_total",
		"flare_session_opens_total 1",
		"flare_solver_latency_seconds_bucket",
		"flare_solver_latency_seconds_count 1",
		"go_memstats_heap_inuse_bytes ",
		"go_memstats_heap_sys_bytes ",
		"go_goroutines ",
		"go_gc_cycles_total ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	// The BAI above ran a solve, so at least one scratch set with grown
	// tables is idle on the freelist by now.
	for _, gauge := range []string{"flare_solver_scratch_sets", "flare_solver_scratch_bytes"} {
		_, rest, _ := strings.Cut(body, "\n"+gauge+" ")
		line, _, _ := strings.Cut(rest, "\n")
		if v, err := strconv.ParseInt(line, 10, 64); err != nil || v < 1 {
			t.Errorf("/metrics %s = %q, want a positive integer", gauge, line)
		}
	}
	if rec.Metrics().BAISolves.Load() != 1 {
		t.Fatalf("recorder solver count = %d, want 1", rec.Metrics().BAISolves.Load())
	}

	// The flight recorder's ring must expose the same exchange.
	debug := get(t, srv, "/debug/flare?n=10")
	var payload struct {
		Schema string            `json:"schema"`
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal([]byte(debug), &payload); err != nil {
		t.Fatalf("/debug/flare not JSON: %v\n%s", err, debug)
	}
	if payload.Schema == "" || len(payload.Events) == 0 {
		t.Fatalf("/debug/flare empty: %s", debug)
	}
	if !strings.Contains(debug, "bai_solve") {
		t.Fatalf("/debug/flare tail missing bai_solve event:\n%s", debug)
	}
}

// TestMetricsReachableDuringBlackout pins the routing contract: the
// observability endpoints bypass the fault middleware, so /metrics
// answers 200 while the API itself is blacked out.
func TestMetricsReachableDuringBlackout(t *testing.T) {
	cfg := core.DefaultConfig()
	fc := faults.Config{Seed: 1, Blackouts: []faults.Window{{From: 0, To: 1 << 40}}}
	handler, _, _ := buildHandler(cfg, fc, 0)
	srv := httptest.NewServer(handler)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("get /metrics: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics during blackout: status %d, want 200", resp.StatusCode)
	}
}

func get(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("get %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: status %d", path, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(b)
}
