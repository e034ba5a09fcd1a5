package loadgen_test

import (
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/loadgen"
	"github.com/flare-sim/flare/internal/oneapi"
)

func newTestServer(t *testing.T) (*oneapi.Server, *httptest.Server) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Delta = 1
	s := oneapi.NewServer(cfg, nil)
	srv := httptest.NewServer(oneapi.Handler(s))
	t.Cleanup(srv.Close)
	return s, srv
}

// TestRunPerCell drives each cell's stats path end to end against an
// in-process server: every open, round, and poll must succeed
// and the summary must account for all of them.
func TestRunPerCell(t *testing.T) {
	_, srv := newTestServer(t)
	cfg := loadgen.Config{
		BaseURL:         srv.URL,
		Cells:           4,
		SessionsPerCell: 3,
		Rounds:          3,
		ChurnEvery:      2,
	}
	tr := &loadgen.Tracker{}
	res, err := loadgen.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.OpenErrors != 0 || res.RoundErrors != 0 || res.PollErrors != 0 {
		t.Fatalf("errors in clean run: %+v", res)
	}
	// 12 initial opens + one churn re-open per cell (round 2).
	if res.OpenedSessions != 12+4 {
		t.Errorf("opened %d sessions, want 16", res.OpenedSessions)
	}
	if res.RoundsTotal != 12 {
		t.Errorf("rounds = %d, want 12 (4 cells x 3)", res.RoundsTotal)
	}
	if res.Polls != 36 {
		t.Errorf("polls = %d, want 36", res.Polls)
	}
	if res.P50Seconds <= 0 || res.P99Seconds < res.P50Seconds {
		t.Errorf("degenerate percentiles: p50=%g p99=%g", res.P50Seconds, res.P99Seconds)
	}
	if res.SessionsPerSec <= 0 || res.RoundsPerSec <= 0 {
		t.Errorf("degenerate rates: %+v", res)
	}

	body := &strings.Builder{}
	if err := tr.WritePrometheus(body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"flareload_opens_total 16",
		"flareload_rounds_total 12",
		"flareload_polls_total 36",
		"flareload_round_seconds_count 12",
		"flareload_round_seconds_bucket",
	} {
		if !strings.Contains(body.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, body.String())
		}
	}
}

// TestConfigValidation pins the config errors.
func TestConfigValidation(t *testing.T) {
	for _, cfg := range []loadgen.Config{
		{},
		{BaseURL: "http://x", Cells: 0, SessionsPerCell: 1},
		{BaseURL: "http://x", Cells: 1, SessionsPerCell: 1, Rounds: -1},
	} {
		if _, err := loadgen.Run(cfg, nil); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
}
