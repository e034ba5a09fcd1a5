package testbed

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/qoe"
)

// UEPlayerConfig parameterises a testbed player.
type UEPlayerConfig struct {
	// MediaBaseURL is the media server root.
	MediaBaseURL string
	// StartupSegments must be buffered before playback starts/resumes.
	StartupSegments int
	// MaxBufferSeconds pauses requests while the buffer is full.
	MaxBufferSeconds float64
	// PollAssignment, if non-nil, is consulted before each segment for
	// the FLARE plugin's current assignment in bits/s (0 = none yet).
	PollAssignment func() float64
}

func (c *UEPlayerConfig) applyDefaults() {
	if c.StartupSegments <= 0 {
		c.StartupSegments = 2
	}
	if c.MaxBufferSeconds <= 0 {
		c.MaxBufferSeconds = 30
	}
}

// UEPlayer is a real-time HAS player streaming over genuine HTTP through
// the software femtocell. It reuses the same Adapter implementations as
// the simulator (FESTIVE, GOOGLE, FLARE plugin).
type UEPlayer struct {
	cfg     UEPlayerConfig
	client  *http.Client
	adapter has.Adapter
	clock   *VirtualClock

	mu       sync.Mutex
	tally    qoe.Tally // the same running sums has.Player keeps
	buffer   float64   // virtual seconds, as of lastAt
	lastAt   float64
	playing  bool
	stalled  bool
	everPlay bool
	stallSec float64
}

// NewUEPlayer builds a player over the given (air-shaped) HTTP client.
func NewUEPlayer(cfg UEPlayerConfig, client *http.Client, adapter has.Adapter, clock *VirtualClock) (*UEPlayer, error) {
	if client == nil || adapter == nil || clock == nil {
		return nil, fmt.Errorf("testbed: player needs client, adapter, and clock")
	}
	if cfg.MediaBaseURL == "" {
		return nil, fmt.Errorf("testbed: player needs a media base URL")
	}
	cfg.applyDefaults()
	return &UEPlayer{cfg: cfg, client: client, adapter: adapter, clock: clock}, nil
}

// FetchMPD downloads and parses the presentation description.
func (p *UEPlayer) FetchMPD(ctx context.Context) (*has.MPD, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, MPDURL(p.cfg.MediaBaseURL), nil)
	if err != nil {
		return nil, fmt.Errorf("testbed: build MPD request: %w", err)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("testbed: fetch MPD: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("testbed: fetch MPD: HTTP %d", resp.StatusCode)
	}
	var mpd has.MPD
	if err := json.NewDecoder(resp.Body).Decode(&mpd); err != nil {
		return nil, fmt.Errorf("testbed: decode MPD: %w", err)
	}
	return &mpd, nil
}

// Run streams segments until the context is cancelled or the
// presentation ends. It blocks; run it in a goroutine.
func (p *UEPlayer) Run(ctx context.Context) error {
	mpd, err := p.FetchMPD(ctx)
	if err != nil {
		return err
	}
	ladder := mpd.Ladder()
	if err := ladder.Validate(); err != nil {
		return fmt.Errorf("testbed: MPD ladder: %w", err)
	}
	segSec := mpd.SegmentSeconds()
	lastQ := -1

	for seg := 0; mpd.TotalSegments <= 0 || seg < mpd.TotalSegments; seg++ {
		if ctx.Err() != nil {
			return nil
		}
		// Buffer cap: wait until there is room for one more segment.
		for {
			p.advance()
			p.mu.Lock()
			full := p.buffer >= p.cfg.MaxBufferSeconds
			p.mu.Unlock()
			if !full || ctx.Err() != nil {
				break
			}
			p.clock.Sleep(200 * time.Millisecond)
		}
		if ctx.Err() != nil {
			return nil
		}

		q := p.nextQuality(ladder, lastQ, seg)
		start := p.clock.Seconds()
		size, err := p.download(ctx, seg, q)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("testbed: segment %d: %w", seg, err)
		}
		end := p.clock.Seconds()
		dl := end - start
		if dl <= 0 {
			dl = 0.001
		}
		rec := has.SegmentRecord{
			Index:         seg,
			Quality:       q,
			RateBps:       ladder.Rate(q),
			Bytes:         size,
			StartTTI:      int64(start * lte.TTIsPerSecond),
			EndTTI:        int64(end * lte.TTIsPerSecond),
			ThroughputBps: float64(size) * 8 / dl,
		}
		p.adapter.OnSegmentComplete(rec)
		p.completeSegment(rec, segSec)
		lastQ = q
	}
	return nil
}

func (p *UEPlayer) nextQuality(ladder has.Ladder, lastQ, seg int) int {
	if p.cfg.PollAssignment != nil {
		if bps := p.cfg.PollAssignment(); bps > 0 {
			return ladder.HighestAtMost(bps)
		}
		return 0
	}
	p.advance()
	p.mu.Lock()
	st := has.State{
		NowTTI:             int64(p.clock.Seconds() * lte.TTIsPerSecond),
		BufferSeconds:      p.buffer,
		LastQuality:        lastQ,
		SegmentsDownloaded: seg,
		Ladder:             ladder,
		Playing:            p.playing,
	}
	p.mu.Unlock()
	return ladder.Clamp(p.adapter.NextQuality(st))
}

func (p *UEPlayer) download(ctx context.Context, seg, rep int) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		SegmentURL(p.cfg.MediaBaseURL, seg, rep), nil)
	if err != nil {
		return 0, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return io.Copy(io.Discard, resp.Body)
}

// advance drains playback and accrues stall time up to the current
// virtual instant.
func (p *UEPlayer) advance() {
	now := p.clock.Seconds()
	p.mu.Lock()
	defer p.mu.Unlock()
	dt := now - p.lastAt
	if dt <= 0 {
		return
	}
	p.lastAt = now
	if p.playing {
		if dt <= p.buffer {
			p.buffer -= dt
			return
		}
		p.stallSec += dt - p.buffer
		p.buffer = 0
		p.playing = false
		p.stalled = true
		return
	}
	if p.stalled {
		p.stallSec += dt
	}
}

func (p *UEPlayer) completeSegment(rec has.SegmentRecord, segSec float64) {
	p.advance()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tally.Add(rec.RateBps)
	p.buffer += segSec
	if !p.playing && p.buffer >= float64(p.cfg.StartupSegments)*segSec {
		p.playing = true
		p.stalled = false
		p.everPlay = true
	}
}

// Stats summarises the session so far.
type Stats struct {
	// Segments is the number of completed downloads.
	Segments int
	// AvgRateBps is the mean selected encoding rate.
	AvgRateBps float64
	// Changes counts bitrate switches.
	Changes int
	// StallSeconds is the rebuffering time after playback start.
	StallSeconds float64
	// BufferSeconds is the current buffer level.
	BufferSeconds float64
}

// Stats returns a snapshot of the player's QoE counters.
func (p *UEPlayer) Stats() Stats {
	p.advance()
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Segments:      p.tally.Segments(),
		AvgRateBps:    p.tally.AvgRateBps(),
		Changes:       p.tally.Changes(),
		StallSeconds:  p.stallSec,
		BufferSeconds: p.buffer,
	}
}
