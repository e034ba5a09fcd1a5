// Package loadgen replays synthetic control-plane traffic against a
// live OneAPI server: per cell, a synthetic eNodeB posting statistics
// reports (one BAI round each) and a population of plugin clients
// opening sessions, polling assignments, and churning. It measures what
// the city-scale story needs measured — sustained sessions/sec on the
// open path and BAI round-trip latency percentiles on the stats path —
// through the same histogram machinery the server's own /metrics uses.
//
// The driver is deliberately deterministic in what it sends (synthetic
// per-flow radio accounting derived from flow and round indices, no
// randomness), so two runs against equal servers issue identical
// request streams; only timing varies.
package loadgen

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/obs"
	"github.com/flare-sim/flare/internal/oneapi"
)

// Config parameterises one load run.
type Config struct {
	// BaseURL is the OneAPI server under test (e.g. http://127.0.0.1:8480).
	BaseURL string
	// Cells is the number of synthetic eNodeBs; each runs concurrently
	// in its own goroutine, so this is also the request concurrency.
	Cells int
	// SessionsPerCell is the plugin population per cell; total
	// concurrent sessions = Cells × SessionsPerCell.
	SessionsPerCell int
	// FirstCell offsets the cell-ID range to [FirstCell,
	// FirstCell+Cells): several drivers can share one server without
	// colliding on cells (whose per-cell report sequencing would
	// reject a second driver's restarted Seq stream as stale).
	FirstCell int
	// Rounds is how many BAI rounds each cell drives (report + polls).
	Rounds int
	// Interval paces a cell's rounds (the production BAI cadence);
	// 0 runs rounds back-to-back — the benchmark mode.
	Interval time.Duration
	// ChurnEvery, when positive, closes and re-opens one session per
	// cell every that many rounds, exercising the session lifecycle
	// under load.
	ChurnEvery int
	// Ladder is the bitrate ladder sessions register (nil = has.SimLadder).
	Ladder []float64
	// HTTPClient overrides the tuned default transport.
	HTTPClient *http.Client
}

func (c *Config) validate() error {
	if c.BaseURL == "" {
		return fmt.Errorf("loadgen: BaseURL is required")
	}
	if c.Cells < 1 || c.SessionsPerCell < 1 {
		return fmt.Errorf("loadgen: need at least 1 cell and 1 session per cell (have %d × %d)",
			c.Cells, c.SessionsPerCell)
	}
	if c.Rounds < 0 || c.ChurnEvery < 0 || c.FirstCell < 0 {
		return fmt.Errorf("loadgen: Rounds, ChurnEvery, and FirstCell must be >= 0")
	}
	return nil
}

// Tracker accumulates live counters and the round-latency histogram; it
// is safe for concurrent use and exportable in Prometheus text format
// while a run is in flight (the flareload /metrics endpoint).
type Tracker struct {
	Opens      atomic.Int64
	OpenErrors atomic.Int64
	Rounds     atomic.Int64
	// RoundErrors counts failed stats exchanges: transport errors and
	// refusals. A partially enforced round is an answer (its failures
	// ride in the response), not an error.
	RoundErrors atomic.Int64
	Polls       atomic.Int64
	PollErrors  atomic.Int64
	Closes      atomic.Int64

	// RoundLatency observes one stats exchange (report POST → decoded
	// assignments) per cell per round, the BAI round-trip the paper's
	// control loop sits on.
	RoundLatency obs.Histogram
}

// WritePrometheus renders the tracker in Prometheus text format,
// prefixed flareload_.
func (t *Tracker) WritePrometheus(w io.Writer) error {
	rows := []struct {
		name string
		v    int64
	}{
		{"opens_total", t.Opens.Load()},
		{"open_errors_total", t.OpenErrors.Load()},
		{"rounds_total", t.Rounds.Load()},
		{"round_errors_total", t.RoundErrors.Load()},
		{"polls_total", t.Polls.Load()},
		{"poll_errors_total", t.PollErrors.Load()},
		{"closes_total", t.Closes.Load()},
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "# TYPE flareload_%s counter\nflareload_%s %d\n", r.name, r.name, r.v); err != nil {
			return err
		}
	}
	return t.RoundLatency.WritePrometheus(w, "flareload_round_seconds")
}

// MetricsHandler serves the tracker at GET /metrics shape.
func MetricsHandler(t *Tracker) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = t.WritePrometheus(w)
	})
}

// Result is the summary of one run.
type Result struct {
	Cells           int     `json:"cells"`
	SessionsPerCell int     `json:"sessions_per_cell"`
	Sessions        int     `json:"sessions"`
	Rounds          int     `json:"rounds"`
	OpenedSessions  int64   `json:"opened_sessions"`
	OpenErrors      int64   `json:"open_errors,omitempty"`
	OpenSeconds     float64 `json:"open_seconds"`
	SessionsPerSec  float64 `json:"sessions_per_sec"`
	RoundsTotal     int64   `json:"rounds_total"`
	RoundErrors     int64   `json:"round_errors,omitempty"`
	Polls           int64   `json:"polls"`
	PollErrors      int64   `json:"poll_errors,omitempty"`
	RoundSeconds    float64 `json:"round_phase_seconds"`
	RoundsPerSec    float64 `json:"rounds_per_sec"`
	P50Seconds      float64 `json:"p50_seconds"`
	P95Seconds      float64 `json:"p95_seconds"`
	P99Seconds      float64 `json:"p99_seconds"`
}

// DefaultTransport returns an http.Client tuned for driving one host at
// high concurrency: Go's default 2 idle connections per host would
// reconnect per request at load-test fan-out.
func DefaultTransport(concurrency int) *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        concurrency + 64,
		MaxIdleConnsPerHost: concurrency + 64,
		IdleConnTimeout:     90 * time.Second,
	}
	return &http.Client{Transport: tr}
}

// cellWorker is one synthetic eNodeB plus its plugin population.
type cellWorker struct {
	cellID  int
	clients []*oneapi.Client
	flows   []int
	ladder  []float64
}

// Run executes one load scenario and returns its summary. tr may be nil
// (a private tracker is used); pass one to export live /metrics during
// the run.
func Run(cfg Config, tr *Tracker) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if tr == nil {
		tr = &Tracker{}
	}
	httpc := cfg.HTTPClient
	if httpc == nil {
		httpc = DefaultTransport(cfg.Cells)
	}
	ladder := cfg.Ladder
	if ladder == nil {
		ladder = has.SimLadder()
	}

	workers := make([]*cellWorker, cfg.Cells)
	for c := range workers {
		cellID := cfg.FirstCell + c
		w := &cellWorker{cellID: cellID, ladder: ladder}
		for i := 0; i < cfg.SessionsPerCell; i++ {
			flowID := cellID*cfg.SessionsPerCell + i
			w.flows = append(w.flows, flowID)
			w.clients = append(w.clients, oneapi.NewClient(cfg.BaseURL, cellID, flowID, httpc))
		}
		workers[c] = w
	}

	// Phase 1 — session storm: every cell opens its whole population
	// concurrently. Opens/sec over this phase is the sustained
	// session-establishment rate.
	openStart := time.Now()
	forEach(workers, func(w *cellWorker) {
		for _, cl := range w.clients {
			if err := cl.Open(has.Ladder(w.ladder), core.Preferences{}); err != nil {
				tr.OpenErrors.Add(1)
				continue
			}
			tr.Opens.Add(1)
		}
	})
	openSeconds := time.Since(openStart).Seconds()

	// Phase 2 — BAI rounds: per round, each cell's eNodeB reports stats
	// (timed: this is the BAI round-trip) and its plugins poll.
	roundStart := time.Now()
	forEach(workers, func(w *cellWorker) {
		for r := 1; r <= cfg.Rounds; r++ {
			w.round(cfg, httpc, tr, r)
			if cfg.Interval > 0 {
				time.Sleep(cfg.Interval)
			}
		}
	})
	roundSeconds := time.Since(roundStart).Seconds()

	res := Result{
		Cells:           cfg.Cells,
		SessionsPerCell: cfg.SessionsPerCell,
		Sessions:        cfg.Cells * cfg.SessionsPerCell,
		Rounds:          cfg.Rounds,
		OpenedSessions:  tr.Opens.Load(),
		OpenErrors:      tr.OpenErrors.Load(),
		OpenSeconds:     openSeconds,
		RoundsTotal:     tr.Rounds.Load(),
		RoundErrors:     tr.RoundErrors.Load(),
		Polls:           tr.Polls.Load(),
		PollErrors:      tr.PollErrors.Load(),
		RoundSeconds:    roundSeconds,
		P50Seconds:      tr.RoundLatency.Quantile(0.50),
		P95Seconds:      tr.RoundLatency.Quantile(0.95),
		P99Seconds:      tr.RoundLatency.Quantile(0.99),
	}
	if openSeconds > 0 {
		res.SessionsPerSec = float64(res.OpenedSessions) / openSeconds
	}
	if roundSeconds > 0 {
		res.RoundsPerSec = float64(res.RoundsTotal) / roundSeconds
	}
	return res, nil
}

// round drives one BAI round for one cell: timed stats report, churn
// step, then the plugin polls.
func (w *cellWorker) round(cfg Config, httpc *http.Client, tr *Tracker, r int) {
	report := w.report(r)
	t0 := time.Now()
	_, err := oneapi.ReportStatsContext(context.Background(), httpc, cfg.BaseURL, w.cellID, report)
	tr.RoundLatency.Observe(time.Since(t0).Nanoseconds())
	tr.Rounds.Add(1)
	if err != nil {
		tr.RoundErrors.Add(1)
	}
	w.churn(cfg, tr, r)
	for _, cl := range w.clients {
		tr.Polls.Add(1)
		if _, _, err := cl.Poll(); err != nil {
			tr.PollErrors.Add(1)
		}
	}
}

// churn closes and immediately re-opens one rotating session, so the
// open/close path stays hot during the round phase.
func (w *cellWorker) churn(cfg Config, tr *Tracker, r int) {
	if cfg.ChurnEvery <= 0 || r%cfg.ChurnEvery != 0 {
		return
	}
	i := (r / cfg.ChurnEvery) % len(w.clients)
	cl := w.clients[i]
	if err := cl.Close(); err == nil {
		tr.Closes.Add(1)
	}
	if err := cl.Open(has.Ladder(w.ladder), core.Preferences{}); err != nil {
		tr.OpenErrors.Add(1)
	} else {
		tr.Opens.Add(1)
	}
}

// report builds the cell's synthetic radio accounting for round r:
// per-flow bytes/RBs derived from flow and round indices, so the
// request stream is deterministic (and each flow's numbers vary round
// to round like a live cell's would).
func (w *cellWorker) report(r int) oneapi.StatsReport {
	flows := make(map[int]core.FlowStats, len(w.flows))
	for _, f := range w.flows {
		flows[f] = core.FlowStats{
			Bytes: int64(400_000 + (f*31+r*17_001)%200_000),
			RBs:   int64(6_000 + (f*13+r*7_001)%6_000),
		}
	}
	return oneapi.StatsReport{Flows: flows, NumDataFlows: 0, Seq: int64(r)}
}

// forEach runs fn per worker concurrently and waits for all.
func forEach(workers []*cellWorker, fn func(*cellWorker)) {
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *cellWorker) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}
