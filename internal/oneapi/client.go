package oneapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/obs"
	"github.com/flare-sim/flare/internal/sim"
)

// ClientConfig hardens the plugin client against a lossy control plane.
// The zero value is normalised to the defaults below.
type ClientConfig struct {
	// RequestTimeout bounds each HTTP attempt (default 5 s). The
	// pre-fault-tolerance client used http.DefaultClient with no
	// deadline, so a hung server stalled the plugin forever.
	RequestTimeout time.Duration
	// MaxRetries is how many times a failed attempt is retried with
	// backoff (default 3; total attempts = MaxRetries + 1). Retries
	// fire on transport errors and 5xx/408/429 responses only —
	// application-level rejections (404/409) are returned immediately.
	MaxRetries int
	// BackoffBase is the first retry's delay (default 100 ms); each
	// subsequent retry doubles it up to BackoffMax (default 2 s), with
	// ±50% deterministic jitter drawn from JitterSeed.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff.
	BackoffMax time.Duration
	// JitterSeed seeds the client's private jitter stream, keeping
	// retry timing reproducible in tests and simulations.
	JitterSeed uint64
	// StaleAfterBAIs is the assignment-age threshold M: an assignment
	// whose install sequence lags the cell sequence by at least M BAIs
	// is reported stale by Poll (default 4).
	StaleAfterBAIs int64
}

// DefaultClientConfig returns the production retry/timeout parameters.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		RequestTimeout: 5 * time.Second,
		MaxRetries:     3,
		BackoffBase:    100 * time.Millisecond,
		BackoffMax:     2 * time.Second,
		StaleAfterBAIs: 4,
	}
}

func (c ClientConfig) normalized() ClientConfig {
	d := DefaultClientConfig()
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = d.RequestTimeout
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = d.MaxRetries
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = d.BackoffBase
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = d.BackoffMax
	}
	if c.StaleAfterBAIs <= 0 {
		c.StaleAfterBAIs = d.StaleAfterBAIs
	}
	return c
}

// Client is the FLARE plugin's HTTP side: it opens the flow's session,
// polls assignments, and closes the session on teardown. One Client per
// video flow.
//
// The client is hardened for a real control plane: every request runs
// under a context deadline, transient failures are retried with bounded
// exponential backoff and jitter, and a poll that discovers the server
// no longer knows the session (a restart wiped its state) automatically
// re-opens with the remembered ladder and preferences before retrying.
// It is safe for concurrent use.
type Client struct {
	http   *http.Client
	cellID int
	flowID int
	cfg    ClientConfig
	rec    *obs.Recorder // nil = telemetry disabled

	// The session's four URLs, built once: a client serves one flow in
	// one cell for its whole life (a handed-over session gets a new one).
	openURL, sessionURL, prefsURL, pollURL string

	mu       sync.Mutex
	rng      *sim.RNG
	ladder   has.Ladder
	prefs    core.Preferences
	opened   bool
	lastSeq  int64
	reopens  int
	retries  int
	failures int
}

// NewClient creates a plugin client for one flow with the default
// hardening configuration. baseURL is the OneAPI server root (e.g.
// "http://127.0.0.1:8480"); httpc nil uses the default client.
func NewClient(baseURL string, cellID, flowID int, httpc *http.Client) *Client {
	return NewClientWithConfig(baseURL, cellID, flowID, httpc, ClientConfig{})
}

// NewClientWithConfig creates a plugin client with explicit retry,
// timeout, and staleness parameters.
func NewClientWithConfig(baseURL string, cellID, flowID int, httpc *http.Client, cfg ClientConfig) *Client {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	cfg = cfg.normalized()
	cell := baseURL + "/oneapi/v4/cells/" + strconv.Itoa(cellID)
	session := cell + "/sessions/" + strconv.Itoa(flowID)
	return &Client{
		http: httpc, cellID: cellID, flowID: flowID,
		cfg: cfg, rng: sim.NewRNG(cfg.JitterSeed),
		openURL:    cell + "/sessions",
		sessionURL: session,
		prefsURL:   session + "/preferences",
		pollURL:    cell + "/assignments/" + strconv.Itoa(flowID),
	}
}

// SetRecorder attaches a telemetry recorder to the client (nil
// disables). Retries, automatic re-opens, and exhausted-retry failures
// are then emitted as events.
func (c *Client) SetRecorder(rec *obs.Recorder) { c.rec = rec }

// Stats are the client's recovery counters: how often requests were
// retried, how often the session was automatically re-opened, and how
// many requests ultimately failed after exhausting retries.
type ClientStats struct {
	Retries  int
	Reopens  int
	Failures int
}

// Stats returns a snapshot of the recovery counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ClientStats{Retries: c.retries, Reopens: c.reopens, Failures: c.failures}
}

// Open registers the session with the flow's ladder and preferences,
// remembering both for automatic re-open after a server restart.
func (c *Client) Open(ladder has.Ladder, prefs core.Preferences) error {
	return c.OpenContext(context.Background(), ladder, prefs)
}

// OpenContext is Open bounded by ctx.
func (c *Client) OpenContext(ctx context.Context, ladder has.Ladder, prefs core.Preferences) error {
	body, err := json.Marshal(SessionRequest{
		FlowID:      c.flowID,
		LadderBps:   ladder,
		Preferences: prefs,
	})
	if err != nil {
		return fmt.Errorf("oneapi: marshal session request: %w", err)
	}
	resp, err := c.do(ctx, http.MethodPost, c.openURL, body)
	if err != nil {
		return fmt.Errorf("oneapi: open session: %w", err)
	}
	defer drainClose(resp.Body)
	// 201 = newly created, 200 = idempotent re-open after a retry or
	// client restart: both leave the session live.
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("oneapi: open session: %w", respErr(resp))
	}
	c.mu.Lock()
	c.ladder = ladder.Clone()
	c.prefs = prefs
	c.opened = true
	c.mu.Unlock()
	return nil
}

// Reopen re-registers the session with the ladder and preferences
// remembered from the last successful Open — the recovery step after a
// OneAPI server restart loses its session table.
func (c *Client) Reopen(ctx context.Context) error {
	c.mu.Lock()
	if !c.opened {
		c.mu.Unlock()
		return fmt.Errorf("oneapi: reopen before first open")
	}
	ladder, prefs := c.ladder, c.prefs
	c.reopens++
	c.mu.Unlock()
	c.rec.Emit(obs.Reopen(int32(c.cellID), int32(c.flowID)))
	return c.OpenContext(ctx, ladder, prefs)
}

// Poll fetches the flow's current assignment. ok is false (without
// error) when no BAI has assigned this flow yet.
func (c *Client) Poll() (AssignmentResponse, bool, error) {
	return c.PollContext(context.Background())
}

// PollContext is Poll bounded by ctx. If the server answers "unknown
// session" — its state was lost in a restart — and the session was
// opened through this client, the client re-opens automatically and
// retries the poll once.
func (c *Client) PollContext(ctx context.Context) (AssignmentResponse, bool, error) {
	a, ok, err := c.pollOnce(ctx)
	if err != nil && errorIsRecoverable(err) && c.canReopen() {
		if rerr := c.Reopen(ctx); rerr == nil {
			a, ok, err = c.pollOnce(ctx)
		}
	}
	if err == nil && ok {
		c.mu.Lock()
		c.lastSeq = a.BAISeq
		c.mu.Unlock()
	}
	return a, ok, err
}

func errorIsRecoverable(err error) bool {
	// Unknown session or unknown cell both mean the server-side state
	// is gone; re-opening recreates it.
	return errors.Is(err, ErrUnknownSession) || errors.Is(err, ErrUnknownCell)
}

func (c *Client) canReopen() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.opened
}

func (c *Client) pollOnce(ctx context.Context) (AssignmentResponse, bool, error) {
	resp, err := c.do(ctx, http.MethodGet, c.pollURL, nil)
	if err != nil {
		return AssignmentResponse{}, false, fmt.Errorf("oneapi: poll: %w", err)
	}
	defer drainClose(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
		var a AssignmentResponse
		body, err := readResponse(resp)
		if err == nil {
			err = decodeAssignmentResponse(body, &a)
		}
		if err != nil {
			return AssignmentResponse{}, false, fmt.Errorf("oneapi: decode assignment: %w", err)
		}
		return a, true, nil
	case http.StatusNotFound:
		err := respErr(resp)
		if errors.Is(err, ErrNoAssignment) {
			// Session live, first BAI pending: not an error.
			return AssignmentResponse{}, false, nil
		}
		return AssignmentResponse{}, false, fmt.Errorf("oneapi: poll: %w", err)
	default:
		return AssignmentResponse{}, false, fmt.Errorf("oneapi: poll: %w", respErr(resp))
	}
}

// Stale reports whether an assignment previously returned by Poll has
// aged past the configured StaleAfterBAIs threshold — the signal for
// the plugin's fallback policy when the control plane still answers but
// this flow's assignment stopped advancing.
func (c *Client) Stale(a AssignmentResponse) bool {
	return a.AgeBAIs() >= c.cfg.StaleAfterBAIs
}

// UpdatePreferences replaces the session's client preferences — e.g. a
// bitrate cap while on a metered plan, or the skimming signal.
func (c *Client) UpdatePreferences(prefs core.Preferences) error {
	return c.UpdatePreferencesContext(context.Background(), prefs)
}

// UpdatePreferencesContext is UpdatePreferences bounded by ctx.
func (c *Client) UpdatePreferencesContext(ctx context.Context, prefs core.Preferences) error {
	body, err := json.Marshal(prefs)
	if err != nil {
		return fmt.Errorf("oneapi: marshal preferences: %w", err)
	}
	resp, err := c.do(ctx, http.MethodPut, c.prefsURL, body)
	if err != nil {
		return fmt.Errorf("oneapi: update preferences: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("oneapi: update preferences: %w", respErr(resp))
	}
	c.mu.Lock()
	c.prefs = prefs
	c.mu.Unlock()
	return nil
}

// Close tears down the session.
func (c *Client) Close() error {
	return c.CloseContext(context.Background())
}

// CloseContext is Close bounded by ctx.
func (c *Client) CloseContext(ctx context.Context) error {
	resp, err := c.do(ctx, http.MethodDelete, c.sessionURL, nil)
	if err != nil {
		return fmt.Errorf("oneapi: close session: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("oneapi: close session: %w", respErr(resp))
	}
	c.mu.Lock()
	c.opened = false
	c.mu.Unlock()
	return nil
}

// do issues one HTTP request with per-attempt timeouts and bounded
// exponential backoff with jitter on transient failures (transport
// errors, 5xx, 408, 429). The final response (or error) is returned.
func (c *Client) do(ctx context.Context, method, url string, body []byte) (*http.Response, error) {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			c.mu.Lock()
			c.retries++
			delay := c.backoffLocked(attempt)
			c.mu.Unlock()
			c.rec.Emit(obs.Retry(int32(c.cellID), int32(c.flowID), int64(attempt)))
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				c.countFailure()
				return nil, fmt.Errorf("backoff interrupted: %w", ctx.Err())
			}
		}
		attemptCtx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
		resp, err := c.attempt(attemptCtx, method, url, body)
		if err != nil {
			cancel()
			lastErr = err
			if ctx.Err() != nil {
				break // caller's context is gone; stop retrying
			}
			continue
		}
		if retryableStatus(resp.StatusCode) && !terminalReject(resp) {
			drainClose(resp.Body)
			cancel()
			lastErr = fmt.Errorf("transient HTTP %d from %s", resp.StatusCode, url)
			continue
		}
		// Hand the body to the caller; cancelling the attempt context
		// now would sever it, so tie cleanup to body close instead.
		resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
		return resp, nil
	}
	c.countFailure()
	return nil, fmt.Errorf("after %d attempt(s): %w", c.cfg.MaxRetries+1, lastErr)
}

func (c *Client) attempt(ctx context.Context, method, url string, body []byte) (*http.Response, error) {
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, reader)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.http.Do(req)
}

func (c *Client) countFailure() {
	c.mu.Lock()
	c.failures++
	c.mu.Unlock()
	c.rec.Emit(obs.ClientFail(int32(c.cellID), int32(c.flowID)))
}

// backoffLocked computes attempt n's delay: base·2^(n-1) capped at
// BackoffMax, scaled by a deterministic jitter in [0.5, 1.5).
func (c *Client) backoffLocked(attempt int) time.Duration {
	d := c.cfg.BackoffBase << uint(attempt-1)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	jitter := 0.5 + c.rng.Float64()
	return time.Duration(float64(d) * jitter)
}

func retryableStatus(status int) bool {
	return status >= 500 || status == http.StatusRequestTimeout || status == http.StatusTooManyRequests
}

// terminalReject peeks a 503's error envelope: an admission rejection
// is a deliberate application answer — retrying inside do() would just
// hammer a saturated cell through its own backpressure signal — so it
// must escape the retry loop with the typed envelope intact. The body
// is restored for the caller's decoder either way.
func terminalReject(resp *http.Response) bool {
	if resp.StatusCode != http.StatusServiceUnavailable {
		return false
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	_ = resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	if err != nil {
		return false
	}
	var env ErrorResponse
	return json.Unmarshal(raw, &env) == nil && env.Code == CodeAdmissionReject
}

// cancelOnClose defers an attempt context's cancellation until the
// caller has consumed the response body.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

// ReportStats is the eNodeB Communication Module's client side: POST the
// report, receive the GBR assignments to enforce. Kept for callers that
// do not need cancellation; it delegates to ReportStatsContext with a
// background context and the default request timeout.
func ReportStats(httpc *http.Client, baseURL string, cellID int, report StatsReport) ([]core.Assignment, error) {
	resp, err := ReportStatsContext(context.Background(), httpc, baseURL, cellID, report)
	if err != nil {
		return nil, err
	}
	return resp.Assignments, nil
}

// ReportStatsContext POSTs one statistics report under ctx (plus the
// default per-request timeout) and returns the full response, including
// the BAI sequence and any partial-enforcement failures. A stale
// sequenced report surfaces as ErrStaleReport.
func ReportStatsContext(ctx context.Context, httpc *http.Client, baseURL string, cellID int, report StatsReport) (StatsResponse, error) {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	body, err := appendStatsReport(make([]byte, 0, statsReportSize(report)), report)
	if err != nil {
		return StatsResponse{}, fmt.Errorf("oneapi: marshal stats report: %w", err)
	}
	reqCtx, cancel := context.WithTimeout(ctx, DefaultClientConfig().RequestTimeout)
	defer cancel()
	url := baseURL + "/oneapi/v4/cells/" + strconv.Itoa(cellID) + "/stats"
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return StatsResponse{}, fmt.Errorf("oneapi: build stats request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpc.Do(req)
	if err != nil {
		return StatsResponse{}, fmt.Errorf("oneapi: report stats: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return StatsResponse{}, fmt.Errorf("oneapi: report stats: %w", respErr(resp))
	}
	var sr StatsResponse
	raw, err := readResponse(resp)
	if err == nil {
		err = decodeStatsResponse(raw, &sr)
	}
	if err != nil {
		return StatsResponse{}, fmt.Errorf("oneapi: decode stats response: %w", err)
	}
	return sr, nil
}

// ReportStatsBatch POSTs many cells' reports in one exchange — the
// aggregation-site client side of /oneapi/v4/stats/batch. The server
// runs the BAI rounds in request order; results come back in that order
// with per-cell errors inside the envelope (one stale cell cannot fail
// its neighbours).
func ReportStatsBatch(ctx context.Context, httpc *http.Client, baseURL string, reports []CellReport) (BatchStatsResponse, error) {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	body, err := json.Marshal(BatchStatsRequest{Reports: reports})
	if err != nil {
		return BatchStatsResponse{}, fmt.Errorf("oneapi: marshal batch stats request: %w", err)
	}
	reqCtx, cancel := context.WithTimeout(ctx, DefaultClientConfig().RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, baseURL+"/oneapi/v4/stats/batch", bytes.NewReader(body))
	if err != nil {
		return BatchStatsResponse{}, fmt.Errorf("oneapi: build batch stats request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpc.Do(req)
	if err != nil {
		return BatchStatsResponse{}, fmt.Errorf("oneapi: report stats batch: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return BatchStatsResponse{}, fmt.Errorf("oneapi: report stats batch: %w", respErr(resp))
	}
	var br BatchStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return BatchStatsResponse{}, fmt.Errorf("oneapi: decode batch stats response: %w", err)
	}
	return br, nil
}

// readResponse reads a response body in one piece, sized by the
// server's Content-Length where it sent a plausible one.
func readResponse(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxBatchBodyBytes {
		body := make([]byte, n)
		_, err := io.ReadFull(resp.Body, body)
		return body, err
	}
	return io.ReadAll(resp.Body)
}

func drainClose(rc io.ReadCloser) {
	_, _ = io.Copy(io.Discard, rc)
	_ = rc.Close()
}

// httpError carries a decoded ErrorResponse while unwrapping to the
// matching sentinel, so HTTP-side callers can use errors.Is just like
// in-process ones.
type httpError struct {
	status   int
	envelope ErrorResponse
}

func (e *httpError) Error() string {
	if e.envelope.Error != "" {
		return fmt.Sprintf("HTTP %d: %s", e.status, e.envelope.Error)
	}
	return fmt.Sprintf("HTTP %d", e.status)
}

func (e *httpError) Unwrap() error { return errorForCode(e.envelope.Code) }

// respErr decodes a non-success response into an httpError.
func respErr(resp *http.Response) error {
	var env ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&env)
	return &httpError{status: resp.StatusCode, envelope: env}
}
