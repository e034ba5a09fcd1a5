package has

import (
	"fmt"

	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/qoe"
	"github.com/flare-sim/flare/internal/transport"
)

// State is the player-side information an Adapter may use when choosing
// the next segment's quality.
type State struct {
	// NowTTI is the current simulated time.
	NowTTI int64
	// BufferSeconds is the current playout buffer level.
	BufferSeconds float64
	// LastQuality is the ladder index of the previously selected
	// segment, or -1 before the first selection.
	LastQuality int
	// SegmentsDownloaded counts completed segments.
	SegmentsDownloaded int
	// Ladder is the available bitrate ladder.
	Ladder Ladder
	// Playing reports whether playback is currently running.
	Playing bool
}

// SegmentRecord describes one completed segment download.
type SegmentRecord struct {
	// Index is the segment's sequence number.
	Index int
	// Quality is the ladder index that was downloaded.
	Quality int
	// RateBps is the encoding bitrate.
	RateBps float64
	// Bytes is the segment size.
	Bytes int64
	// StartTTI and EndTTI bound the download (request to last byte).
	StartTTI, EndTTI int64
	// ThroughputBps is the measured download throughput.
	ThroughputBps float64
}

// Adapter chooses each segment's quality — the pluggable rate-adaptation
// algorithm (FESTIVE, GOOGLE, AVIS client, or the FLARE plugin).
type Adapter interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// NextQuality returns the ladder index for the next segment.
	NextQuality(s State) int
	// OnSegmentComplete feeds back the finished download.
	OnSegmentComplete(rec SegmentRecord)
}

// RequestPacer is an optional Adapter extension: a non-zero delay
// postpones the next segment request by that many TTIs (FESTIVE's
// randomized chunk scheduling).
type RequestPacer interface {
	RequestDelay(s State) int64
}

// The player's fixed behaviour.
const (
	// startupSegments is how many segments must be buffered before
	// playback starts (and resumes after a stall).
	startupSegments = 2
	// requestLatencyTTIs is the HTTP GET propagation delay (20 ms)
	// before the server starts sending the response.
	requestLatencyTTIs = 20
)

// PlayerConfig parameterises the player state machine.
type PlayerConfig struct {
	// MaxBufferSeconds pauses segment requests while the buffer is at
	// or above this level.
	MaxBufferSeconds float64
}

// DefaultPlayerConfig returns the standard player settings: cap the
// buffer at 30 s.
func DefaultPlayerConfig() PlayerConfig {
	return PlayerConfig{MaxBufferSeconds: 30}
}

func (c PlayerConfig) validate() error {
	if c.MaxBufferSeconds <= 0 {
		return fmt.Errorf("has: MaxBufferSeconds must be positive, got %v", c.MaxBufferSeconds)
	}
	return nil
}

// Player is the HAS client state machine. It downloads segments
// sequentially over one TCP flow, maintains the playout buffer, detects
// stalls, and tallies QoE statistics. Single-goroutine, event-driven.
//
// A session retains its live state only — nothing per completed
// segment. Each SegmentRecord goes to the adapter and the OnSegment
// hook and is then dropped; what a result needs of the history is
// summed as it happens (Tally). A caller that wants the history itself
// collects it from OnSegment.
type Player struct {
	cfg  PlayerConfig
	env  transport.Env
	flow *transport.Flow
	mpd  *MPD
	// ladder is mpd's bitrate ladder (MPD.SharedLadder: one read-only
	// slice for every player of the presentation): state snapshots and
	// per-segment accounting read it every decision, and MPD.Ladder()
	// allocates per call. Adapters receive it in State and must not
	// write to it.
	ladder  Ladder
	adapter Adapter
	pacer   RequestPacer // adapter's extension (nil if absent), resolved by Init

	// OnSegment, if set, is invoked after each completed segment.
	OnSegment func(rec SegmentRecord)
	// OnStall, if set, is invoked when a rebuffering stall begins
	// (started=true) and when playback resumes from one (started=false).
	// Initial startup delay and end-of-presentation drain do not fire it.
	OnStall func(started bool)

	nextSeg     int
	lastQuality int
	downloading bool
	segStartTTI int64
	segBytes    int64
	segRecv     int64
	segQuality  int

	// Lazily-advanced playback state.
	buffer     float64 // seconds, as of lastTTI
	lastTTI    int64
	playing    bool
	stalled    bool // stalled after playback had started
	everPlayed bool
	done       bool

	stallSeconds float64
	stallCount   int
	startTTI     int64 // when Start was called
	startupTTI   int64 // when playback first started, -1 until then

	tally qoe.Tally // the selected rates, summed segment by segment
}

// NewPlayer builds a player over the given flow. The flow's OnDelivered
// hook is taken over by the player.
func NewPlayer(env transport.Env, flow *transport.Flow, mpd *MPD, adapter Adapter, cfg PlayerConfig) (*Player, error) {
	p := new(Player)
	if err := p.Init(env, flow, mpd, adapter, cfg); err != nil {
		return nil, err
	}
	return p, nil
}

// Init is NewPlayer into caller-provided storage — the cell simulator
// carves its players from one slab. p must not be copied afterwards:
// the flow's delivery hook and the player's timers point at it.
func (p *Player) Init(env transport.Env, flow *transport.Flow, mpd *MPD, adapter Adapter, cfg PlayerConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	// NewMPD validated the ladder it derived; only an MPD built any
	// other way (decoded from JSON) is checked here.
	ladder := mpd.SharedLadder()
	if mpd.ladder == nil {
		if err := ladder.Validate(); err != nil {
			return err
		}
	}
	if adapter == nil {
		return fmt.Errorf("has: nil adapter")
	}
	// Zeroed, then set field by field: a composite literal would be
	// built aside and copied into p whole.
	*p = Player{}
	p.cfg = cfg
	p.env = env
	p.flow = flow
	p.mpd = mpd
	p.ladder = ladder
	p.adapter = adapter
	p.pacer, _ = adapter.(RequestPacer)
	p.lastQuality = -1
	p.startupTTI = -1
	flow.OnDelivered = (*segmentBytes)(p)
	return nil
}

// The player's event handlers are views of the player itself: a
// *Player converted to one of these types and stored in a sim.Handler
// is a pointer in an interface, so wiring and arming them allocates
// nothing — the buffer-cap pacing loop re-arms requestTimer
// continuously while a stream is buffer-limited.
type (
	segmentBytes Player // the flow's delivery hook: onBytes
	requestTimer Player // pacing: requestNext
	sendTimer    Player // request latency: the response starts, arg bytes long
)

func (h *segmentBytes) Fire(n int64)  { (*Player)(h).onBytes(n) }
func (h *requestTimer) Fire(int64)    { (*Player)(h).requestNext() }
func (h *sendTimer) Fire(bytes int64) { h.flow.Send(bytes) }

// Adapter returns the player's rate-adaptation algorithm.
func (p *Player) Adapter() Adapter { return p.adapter }

// MPD returns the media description the player is streaming.
func (p *Player) MPD() *MPD { return p.mpd }

// Flow returns the underlying transport flow.
func (p *Player) Flow() *transport.Flow { return p.flow }

// Start kicks off the first segment request.
func (p *Player) Start() {
	p.lastTTI = p.now()
	p.startTTI = p.lastTTI
	p.requestNext()
}

// now reads the simulated clock — the player's one crossing into its Env.
func (p *Player) now() int64 {
	return p.env.NowTTI()
}

// State snapshots the adapter-visible player state at the current time.
func (p *Player) State() State {
	now := p.now()
	p.advance(now)
	return State{
		NowTTI:             now,
		BufferSeconds:      p.buffer,
		LastQuality:        p.lastQuality,
		SegmentsDownloaded: p.tally.Segments(),
		Ladder:             p.ladder,
		Playing:            p.playing,
	}
}

// BufferSeconds returns the current playout buffer level.
func (p *Player) BufferSeconds() float64 {
	p.advance(p.now())
	return p.buffer
}

// StallSeconds returns the cumulative rebuffering time (stalls after
// playback first started; the initial startup delay is not counted).
func (p *Player) StallSeconds() float64 {
	p.advance(p.now())
	return p.stallSeconds
}

// StallCount returns the number of rebuffering events.
func (p *Player) StallCount() int {
	p.advance(p.now())
	return p.stallCount
}

// StartupDelaySeconds returns the time from Start until playback first
// began, or -1 if playback never started.
func (p *Player) StartupDelaySeconds() float64 {
	if p.startupTTI < 0 {
		return -1
	}
	return float64(p.startupTTI-p.startTTI) / lte.TTIsPerSecond
}

// Tally returns the session's selected-rate sums so far: segment count,
// mean rate, bitrate changes, and the QoE score's per-segment terms.
func (p *Player) Tally() qoe.Tally { return p.tally }

// Done reports whether the presentation finished downloading or the
// session was stopped.
func (p *Player) Done() bool { return p.done }

// Ended reports whether the player will never send another byte: it
// is done (stopped, or past the last segment) with no segment in
// progress, so no request is pending and no response is on its way.
func (p *Player) Ended() bool { return p.done && !p.downloading }

// Stop ends the session: no further segment requests are issued (an
// in-flight download completes and is still recorded). Used for
// client-churn scenarios where viewers leave mid-stream.
func (p *Player) Stop() {
	p.advance(p.now())
	p.done = true
}

// advance brings the lazy playback state up to now: drains the buffer
// while playing and accumulates stall time while stalled.
func (p *Player) advance(now int64) {
	if now <= p.lastTTI {
		return
	}
	dt := float64(now-p.lastTTI) / lte.TTIsPerSecond
	p.lastTTI = now
	if p.playing {
		if dt <= p.buffer {
			p.buffer -= dt
			return
		}
		// Ran dry partway through the interval.
		stallDt := dt - p.buffer
		p.buffer = 0
		p.playing = false
		if (p.done || p.nextSeg >= p.totalSegments()) && !p.downloading {
			// Presentation played out to the end (or the session was
			// stopped): not a stall.
			return
		}
		p.stalled = true
		p.stallCount++
		p.stallSeconds += stallDt
		if p.OnStall != nil {
			p.OnStall(true)
		}
		return
	}
	if p.stalled {
		p.stallSeconds += dt
	}
}

func (p *Player) totalSegments() int {
	if p.mpd.TotalSegments <= 0 {
		return int(^uint(0) >> 1) // unbounded
	}
	return p.mpd.TotalSegments
}

// maybeStartPlayback starts or resumes playback once enough segments are
// buffered.
func (p *Player) maybeStartPlayback() {
	threshold := startupSegments * p.mpd.SegmentSeconds()
	if !p.playing && p.buffer >= threshold {
		wasStalled := p.stalled
		p.playing = true
		p.stalled = false
		if !p.everPlayed {
			p.everPlayed = true
			p.startupTTI = p.lastTTI
		}
		if wasStalled && p.OnStall != nil {
			p.OnStall(false)
		}
	}
}

// requestNext issues the next segment request if allowed.
func (p *Player) requestNext() {
	now := p.now()
	p.advance(now)
	if p.downloading || p.done {
		return
	}
	if p.nextSeg >= p.totalSegments() {
		p.done = true
		return
	}
	// Buffer cap: defer the request until the buffer drains below the
	// maximum.
	if p.buffer >= p.cfg.MaxBufferSeconds {
		wait := int64((p.buffer-p.cfg.MaxBufferSeconds)*lte.TTIsPerSecond) + 1
		if !p.playing {
			wait = 100 // re-check while paused; drain only happens in playback
		}
		p.env.ScheduleHandler(wait, (*requestTimer)(p))
		return
	}
	// Optional adapter pacing (FESTIVE's randomized scheduling).
	if p.pacer != nil {
		if d := p.pacer.RequestDelay(p.stateLocked(now)); d > 0 {
			p.env.ScheduleHandler(d, (*requestTimer)(p))
			return
		}
	}

	q := p.ladder.Clamp(p.adapter.NextQuality(p.stateLocked(now)))
	p.segQuality = q
	p.segBytes = p.mpd.SegmentBytesAt(p.nextSeg, q)
	p.segRecv = 0
	p.segStartTTI = now
	p.downloading = true
	p.env.ScheduleHandlerArg(requestLatencyTTIs, (*sendTimer)(p), p.segBytes)
}

// stateLocked builds a State without re-advancing (advance already ran).
func (p *Player) stateLocked(now int64) State {
	return State{
		NowTTI:             now,
		BufferSeconds:      p.buffer,
		LastQuality:        p.lastQuality,
		SegmentsDownloaded: p.tally.Segments(),
		Ladder:             p.ladder,
		Playing:            p.playing,
	}
}

// onBytes handles radio-delivered bytes for the in-progress segment. A
// completed segment is accounted in place and allocates nothing.
func (p *Player) onBytes(n int64) {
	if !p.downloading {
		return
	}
	p.segRecv += n
	if p.segRecv < p.segBytes {
		return
	}
	now := p.now()
	p.advance(now)

	dlSeconds := float64(now-p.segStartTTI) / lte.TTIsPerSecond
	if dlSeconds <= 0 {
		dlSeconds = 1.0 / lte.TTIsPerSecond
	}
	rec := SegmentRecord{
		Index:         p.nextSeg,
		Quality:       p.segQuality,
		RateBps:       p.ladder.Rate(p.segQuality),
		Bytes:         p.segBytes,
		StartTTI:      p.segStartTTI,
		EndTTI:        now,
		ThroughputBps: float64(p.segBytes) * 8 / dlSeconds,
	}
	p.tally.Add(rec.RateBps)
	p.lastQuality = p.segQuality
	p.nextSeg++
	p.downloading = false
	p.buffer += p.mpd.SegmentSeconds()
	p.maybeStartPlayback()
	p.adapter.OnSegmentComplete(rec)
	if p.OnSegment != nil {
		p.OnSegment(rec)
	}
	// TestCompletedSegmentAllocatesNothing covers the request, too.
	p.requestNext()
}
