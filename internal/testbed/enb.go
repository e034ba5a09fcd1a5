package testbed

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/oneapi"
	"github.com/flare-sim/flare/internal/sim"
)

// ENodeBConfig parameterises the software femtocell.
type ENodeBConfig struct {
	// NumUEs is the number of attachable UEs.
	NumUEs int
	// InitialITbs is every UE's starting MCS (the static scenario
	// uses 2).
	InitialITbs int
	// Speedup accelerates scenario time (1 = real time).
	Speedup float64
	// TickInterval is the wall-clock MAC tick (default 5 ms); each tick
	// runs the TTIs that elapsed in virtual time.
	TickInterval time.Duration
	// QueueLimit is the per-bearer downlink queue in bytes.
	QueueLimit int64
	// OneAPIBaseURL, when set, enables the Communication Module: the
	// Statistics Reporter's per-BAI report is POSTed there and the
	// returned GBR assignments are installed (Continuous GBR Updater).
	OneAPIBaseURL string
	// CellID identifies this cell at the OneAPI server.
	CellID int
	// StatsInterval is the reporting BAI in virtual time (default 1 s).
	StatsInterval time.Duration
	// NumDataFlows is reported to the OneAPI server in lieu of a PCRF
	// connection.
	NumDataFlows int
	// HTTPClient performs the Communication Module's requests.
	HTTPClient *http.Client
}

func (c *ENodeBConfig) applyDefaults() {
	if c.Speedup < 1 {
		c.Speedup = 1
	}
	if c.TickInterval <= 0 {
		c.TickInterval = 5 * time.Millisecond
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 256 << 10
	}
	if c.StatsInterval <= 0 {
		c.StatsInterval = time.Second
	}
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
}

// ENodeB is the software femtocell base station. It owns the radio
// substrate (Scheduler Module + RB & Rate Trace Module), the iTbs
// Override Module (Channel), and the Statistics Reporter / Communication
// Module loop toward the OneAPI server.
type ENodeB struct {
	cfg     ENodeBConfig
	clock   *VirtualClock
	channel *OverrideChannel

	mu    sync.Mutex
	cond  *sync.Cond
	radio *lte.ENodeB
	conns map[int]*shapedBody // active shaped response per bearer
	tti   int64

	stop chan struct{}
	wg   sync.WaitGroup

	// OnAssignments, if set, observes each BAI's assignments after they
	// are enforced (used by tests and by local plugin delivery).
	OnAssignments func([]core.Assignment)
}

// NewENodeB builds and starts the femtocell. Call Stop when done.
func NewENodeB(cfg ENodeBConfig) (*ENodeB, error) {
	if cfg.NumUEs <= 0 {
		return nil, fmt.Errorf("testbed: need at least one UE, got %d", cfg.NumUEs)
	}
	cfg.applyDefaults()
	e := &ENodeB{
		cfg:     cfg,
		clock:   NewVirtualClock(cfg.Speedup),
		channel: NewOverrideChannel(cfg.NumUEs, cfg.InitialITbs),
		conns:   make(map[int]*shapedBody),
		stop:    make(chan struct{}),
	}
	e.cond = sync.NewCond(&e.mu)
	e.radio = lte.NewENodeB(e.channel, lte.TwoPhaseGBRScheduler{})
	e.wg.Add(1)
	go e.run()
	return e, nil
}

// Clock returns the testbed's virtual clock.
func (e *ENodeB) Clock() *VirtualClock { return e.clock }

// Channel returns the iTbs Override Module.
func (e *ENodeB) Channel() *OverrideChannel { return e.channel }

// Stop halts the MAC loop and unblocks any waiting readers.
func (e *ENodeB) Stop() {
	close(e.stop)
	e.wg.Wait()
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
}

// Attach creates a bearer for a UE and returns its ID plus an HTTP
// client whose response bodies are paced by this cell's air interface.
func (e *ENodeB) Attach(ue int, class lte.BearerClass) (int, *http.Client, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	id := len(e.radio.Bearers())
	b := &lte.Bearer{ID: id, UE: ue, Class: class, QueueLimit: e.cfg.QueueLimit}
	if _, err := e.radio.AddBearer(b); err != nil {
		return 0, nil, err
	}
	b.OnDeliver = sim.HandlerFunc(func(n int64) {
		if conn := e.conns[id]; conn != nil {
			conn.allowance += n
		}
	})
	client := &http.Client{
		Transport: &airTransport{enb: e, bearerID: id, base: http.DefaultTransport},
	}
	return id, client, nil
}

// SetGBR installs a guaranteed bit rate on a bearer (the Continuous GBR
// Updater's local interface).
func (e *ENodeB) SetGBR(bearerID int, gbrBits float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.radio.SetGBR(bearerID, gbrBits)
}

// BearerTotals returns a bearer's cumulative RB/byte accounting from the
// RB & Rate Trace Module.
func (e *ENodeB) BearerTotals(bearerID int) (lte.WindowStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	b := e.radio.BearerByID(bearerID)
	if b == nil {
		return lte.WindowStats{}, fmt.Errorf("testbed: no bearer %d", bearerID)
	}
	return b.TotalStats(), nil
}

// run is the MAC loop: advance the radio to the virtual-clock TTI, then
// fire the Statistics Reporter when a BAI has elapsed.
func (e *ENodeB) run() {
	defer e.wg.Done()
	ticker := time.NewTicker(e.cfg.TickInterval)
	defer ticker.Stop()
	var lastStats time.Duration
	for {
		select {
		case <-e.stop:
			return
		case <-ticker.C:
		}
		target := int64(e.clock.Now() / time.Millisecond)
		e.mu.Lock()
		// Cap the catch-up burst so a scheduling hiccup can't stall the
		// loop; the virtual clock keeps overall progress honest.
		if target > e.tti+1000 {
			e.tti = target - 1000
		}
		for e.tti < target {
			e.radio.RunTTI(e.tti)
			e.tti++
		}
		e.cond.Broadcast()
		e.mu.Unlock()

		if now := e.clock.Now(); now-lastStats >= e.cfg.StatsInterval {
			lastStats = now
			e.reportStats()
		}
	}
}

// reportStats implements the Statistics Reporter + Communication Module:
// collect per-video-bearer windows, POST them to the OneAPI server, and
// enforce the returned GBRs.
func (e *ENodeB) reportStats() {
	report := oneapi.StatsReport{
		Flows:        make(map[int]core.FlowStats),
		NumDataFlows: e.cfg.NumDataFlows,
	}
	e.mu.Lock()
	for _, b := range e.radio.Bearers() {
		if b.Class != lte.ClassVideo {
			continue
		}
		w := b.CollectWindow()
		report.Flows[b.ID] = core.FlowStats{
			Bytes:          w.Bytes,
			RBs:            w.RBs,
			BytesPerRBHint: lte.BitsPerRB(e.channel.ITbs(b.UE)) / 8,
		}
	}
	e.mu.Unlock()

	if e.cfg.OneAPIBaseURL == "" {
		return
	}
	resp, err := oneapi.ReportStatsContext(context.Background(), e.cfg.HTTPClient, e.cfg.OneAPIBaseURL, e.cfg.CellID, report)
	if err != nil {
		// The next BAI retries; a lost report only delays adaptation.
		return
	}
	e.mu.Lock()
	for _, a := range resp.Assignments {
		_ = e.radio.SetGBR(a.FlowID, a.RateBps)
	}
	cb := e.OnAssignments
	e.mu.Unlock()
	if cb != nil {
		cb(resp.Assignments)
	}
}

// stopped reports whether Stop was called (for reader loops).
func (e *ENodeB) stopped() bool {
	select {
	case <-e.stop:
		return true
	default:
		return false
	}
}

// airTransport shapes HTTP response bodies through the air interface.
type airTransport struct {
	enb      *ENodeB
	bearerID int
	base     http.RoundTripper
}

// RoundTrip implements http.RoundTripper.
func (t *airTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = t.enb.shape(t.bearerID, resp.Body)
	return resp, nil
}

// shapedBody delivers an upstream response body at the rate the radio
// serves the bearer: a pump goroutine pushes upstream bytes into the
// bearer queue (blocking on queue-full backpressure), and Read hands
// bytes to the UE only as the Scheduler Module drains them.
type shapedBody struct {
	enb    *ENodeB
	bearer *lte.Bearer
	src    io.ReadCloser

	// guarded by enb.mu
	fifo      []byte
	allowance int64
	srcDone   bool
	closed    bool
}

func (e *ENodeB) shape(bearerID int, src io.ReadCloser) io.ReadCloser {
	e.mu.Lock()
	defer e.mu.Unlock()
	b := e.radio.BearerByID(bearerID)
	if b == nil {
		return src // unknown bearer: pass through unshaped
	}
	s := &shapedBody{enb: e, bearer: b, src: src}
	e.conns[bearerID] = s
	go s.pump()
	return s
}

// pump moves upstream bytes into the bearer queue with backpressure.
func (s *shapedBody) pump() {
	buf := make([]byte, 16<<10)
	for {
		n, err := s.src.Read(buf)
		if n > 0 {
			off := 0
			s.enb.mu.Lock()
			for off < n && !s.closed && !s.enb.stopped() {
				acc := s.bearer.Enqueue(int64(n - off))
				if acc == 0 {
					s.enb.cond.Wait()
					continue
				}
				s.fifo = append(s.fifo, buf[off:off+int(acc)]...)
				off += int(acc)
			}
			s.enb.mu.Unlock()
		}
		if err != nil {
			s.enb.mu.Lock()
			s.srcDone = true
			s.enb.cond.Broadcast()
			s.enb.mu.Unlock()
			return
		}
	}
}

// Read implements io.Reader, delivering bytes as radio grants allow.
func (s *shapedBody) Read(p []byte) (int, error) {
	s.enb.mu.Lock()
	defer s.enb.mu.Unlock()
	for {
		if s.closed {
			return 0, fmt.Errorf("testbed: read on closed body")
		}
		n := int64(len(s.fifo))
		if s.allowance < n {
			n = s.allowance
		}
		if n > int64(len(p)) {
			n = int64(len(p))
		}
		if n > 0 {
			copy(p, s.fifo[:n])
			s.fifo = s.fifo[n:]
			s.allowance -= n
			return int(n), nil
		}
		if s.srcDone && len(s.fifo) == 0 {
			return 0, io.EOF
		}
		if s.enb.stopped() {
			return 0, io.EOF
		}
		s.enb.cond.Wait()
	}
}

// Close implements io.Closer.
func (s *shapedBody) Close() error {
	s.enb.mu.Lock()
	s.closed = true
	delete(s.enb.conns, s.bearer.ID)
	s.enb.cond.Broadcast()
	s.enb.mu.Unlock()
	return s.src.Close()
}
