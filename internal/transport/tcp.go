// Package transport models the end-to-end TCP path of each flow: the
// sender sits at the media/data server, the bottleneck is the per-bearer
// drop-tail queue at the eNodeB, and ACKs are clocked back to the sender
// half an RTT after radio delivery.
//
// The congestion controller is TCP Westwood (the paper's Table III
// setting): slow start and congestion avoidance as usual, but on loss the
// window collapses to the bandwidth-delay product estimated from the ACK
// stream rather than to half the window. The model is byte-granular and
// event-driven; it reproduces the dynamics that matter to HAS rate
// adaptation — slow-start ramps on idle connections, queue-overflow
// backoff, and elastic sharing between video and data flows.
package transport

import (
	"fmt"
	"math"

	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/sim"
)

// Env is the scheduling environment flows run in — implemented by the
// cell simulator over its clock and event queue. It schedules
// sim.Handlers, and a flow's handlers are views of the flow itself (see
// ackTimer), so arming one allocates nothing.
type Env interface {
	// NowTTI returns the current TTI index.
	NowTTI() int64
	// ScheduleHandler fires h.Fire(0) after delayTTIs TTIs (>= 1
	// enforces causality).
	ScheduleHandler(delayTTIs int64, h sim.Handler)
	// ScheduleHandlerArg fires h.Fire(arg) after delayTTIs TTIs: the
	// variant for payload-carrying events. The flow uses it for the
	// per-delivery ACK clock — its ACK handler plus the byte count.
	ScheduleHandlerArg(delayTTIs int64, h sim.Handler, arg int64)
}

// ClosureEnv is an environment that schedules closures instead of
// handlers, such as a bare clock over sim.EventQueue's Schedule and
// ScheduleArg. NewFlow accepts one.
type ClosureEnv interface {
	NowTTI() int64
	Schedule(delayTTIs int64, fn func())
	ScheduleArg(delayTTIs int64, fn func(int64), arg int64)
}

// closureEnv runs a flow on a ClosureEnv: each event costs the closure
// that carries its handler.
type closureEnv struct{ ClosureEnv }

func (e closureEnv) ScheduleHandler(delayTTIs int64, h sim.Handler) {
	e.Schedule(delayTTIs, func() { h.Fire(0) })
}

func (e closureEnv) ScheduleHandlerArg(delayTTIs int64, h sim.Handler, arg int64) {
	e.ScheduleArg(delayTTIs, h.Fire, arg)
}

// Waker is an optional Env extension. An environment that implements it
// is told whenever a flow transitions from inactive (nothing to send)
// to active — the wake hint the quiescence-aware kernel uses to keep an
// active-flow tick list instead of polling every flow every TTI.
type Waker interface {
	FlowActivated(f *Flow)
}

// Config holds the TCP model parameters.
type Config struct {
	// RTTTTIs is the base round-trip time in TTIs (ms), radio queueing
	// excluded. Default 40 ms.
	RTTTTIs int64
	// MSS is the maximum segment size in bytes. Default 1460.
	MSS int
	// InitialWindow is the initial congestion window in segments (IW10).
	InitialWindow int
	// IdleResetTTIs resets the window to the initial window after this
	// much send inactivity (slow-start-after-idle). 0 disables.
	IdleResetTTIs int64
	// QueueLimit is the eNB per-bearer queue capacity in bytes; the flow
	// configures its bearer with it. Default 256 KiB.
	QueueLimit int64
	// OverheadFactor is the wire-bytes-per-application-byte ratio
	// (TCP/IP/HTTP framing, retransmissions). Application goodput is
	// therefore OverheadFactor below the radio rate — the systematic
	// gap that makes throughput-measuring clients round down below a
	// network-enforced MBR. Default 1.04.
	OverheadFactor float64
}

// DefaultConfig returns the standard flow parameters.
func DefaultConfig() Config {
	return Config{
		RTTTTIs:        40,
		MSS:            1460,
		InitialWindow:  10,
		IdleResetTTIs:  200,
		QueueLimit:     256 << 10,
		OverheadFactor: 1.04,
	}
}

func (c Config) validate() error {
	if c.RTTTTIs < 2 {
		return fmt.Errorf("transport: RTT must be at least 2 TTIs, got %d", c.RTTTTIs)
	}
	if c.MSS <= 0 {
		return fmt.Errorf("transport: MSS must be positive, got %d", c.MSS)
	}
	if c.InitialWindow <= 0 {
		return fmt.Errorf("transport: initial window must be positive, got %d", c.InitialWindow)
	}
	if c.QueueLimit <= 0 {
		return fmt.Errorf("transport: queue limit must be positive, got %d", c.QueueLimit)
	}
	if c.OverheadFactor < 1 {
		return fmt.Errorf("transport: overhead factor must be >= 1, got %v", c.OverheadFactor)
	}
	return nil
}

// Flow is one TCP connection from server to UE across a bearer.
// Flows are single-goroutine, driven by the simulation loop.
type Flow struct {
	env    Env
	waker  Waker // env's Waker extension, nil if not implemented
	bearer *lte.Bearer
	cfg    Config

	// OnDelivered, if set, is fired at the UE with the bytes that arrive
	// over the radio (before the ACK returns to the sender). HAS players
	// use it to track segment download progress.
	OnDelivered sim.Handler

	pending  int64 // app bytes waiting for window space
	greedy   bool  // unlimited pending (iperf-style)
	inFlight int64 // bytes sent but not yet ACKed

	cwnd     float64 // congestion window, bytes
	ssthresh float64 // slow-start threshold, bytes

	bweBytesPerTTI float64 // Westwood bandwidth estimate
	lastAckTTI     int64
	lastSentTTI    int64
	inRecovery     bool

	wireDelivered int64 // radio bytes delivered, including overhead
	appDelivered  int64 // application (goodput) bytes delivered
	lostTotal     int64
	lossEvents    int64
}

// NewFlow wires a TCP flow onto a bearer. The bearer's OnDeliver hook and
// QueueLimit are taken over by the flow. env is the flow's Env when it
// is one; otherwise the flow schedules through its closure calls.
func NewFlow(env ClosureEnv, bearer *lte.Bearer, cfg Config) (*Flow, error) {
	e, ok := env.(Env)
	if !ok {
		e = closureEnv{env}
	}
	f := new(Flow)
	if err := f.Init(e, bearer, cfg); err != nil {
		return nil, err
	}
	return f, nil
}

// Init is NewFlow into caller-provided storage — the cell simulator
// carves its flows from one slab. f must not be copied afterwards: the
// bearer's delivery hook and the flow's timers point at it.
func (f *Flow) Init(env Env, bearer *lte.Bearer, cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	*f = Flow{
		env:         env,
		bearer:      bearer,
		cfg:         cfg,
		cwnd:        float64(cfg.InitialWindow * cfg.MSS),
		ssthresh:    1 << 30,
		lastAckTTI:  -1,
		lastSentTTI: -1,
	}
	if w, ok := env.(Waker); ok {
		f.waker = w
	}
	bearer.QueueLimit = cfg.QueueLimit
	bearer.OnDeliver = (*radioDelivery)(f)
	return nil
}

// The flow's event handlers are views of the flow itself: a *Flow
// converted to one of these types and stored in a sim.Handler is a
// pointer in an interface, so wiring and arming them allocates nothing.
type (
	radioDelivery Flow // the bearer's delivery hook: onRadioDeliver
	ackTimer      Flow // an ACK's arrival at the sender: onAck
	lossTimer     Flow // duplicate ACKs revealing a drop: onLossDetected
)

func (h *radioDelivery) Fire(bytes int64) { (*Flow)(h).onRadioDeliver(bytes) }
func (h *ackTimer) Fire(bytes int64)      { (*Flow)(h).onAck(bytes) }
func (h *lossTimer) Fire(int64)           { (*Flow)(h).onLossDetected() }

// Bearer returns the radio bearer this flow rides on.
func (f *Flow) Bearer() *lte.Bearer { return f.bearer }

// SetGreedy makes the flow an always-backlogged (iperf-like) source.
func (f *Flow) SetGreedy(greedy bool) {
	wasActive := f.Active()
	f.greedy = greedy
	if greedy {
		if !wasActive && f.waker != nil {
			f.waker.FlowActivated(f)
		}
		f.trySend()
	}
}

// Send queues application bytes for transmission (e.g. one video
// segment's response body) and starts transmitting within window limits.
// The wire carries OverheadFactor times as many bytes.
func (f *Flow) Send(bytes int64) {
	if bytes <= 0 {
		return
	}
	if !f.Active() && f.waker != nil {
		f.waker.FlowActivated(f)
	}
	f.pending += int64(math.Ceil(float64(bytes) * f.cfg.OverheadFactor))
	f.trySend()
}

// Active reports whether the flow has application bytes it still wants
// to hand to the radio queue — i.e. whether Tick could possibly act.
func (f *Flow) Active() bool { return f.greedy || f.pending > 0 }

// Quiescent reports whether Tick is a provable no-op right now, making
// the flow safe to skip during a kernel fast-forward. Either the flow
// has nothing to send, or its congestion window is closed: with
// inFlight >= cwnd no bytes can be enqueued, and inFlight > 0 also
// rules out the slow-start-after-idle reset (which requires an empty
// pipe), so trySend cannot change any state. Within an event-free span
// cwnd, inFlight, and pending are all constant (they only move in
// Send/SetGreedy and the ACK/loss events), so a flow quiescent at the
// start of the span stays quiescent throughout it.
func (f *Flow) Quiescent() bool {
	if !f.Active() {
		return true
	}
	return f.inFlight > 0 && int64(f.cwnd)-f.inFlight <= 0
}

// Pending returns the app bytes not yet passed to the radio queue.
func (f *Flow) Pending() int64 { return f.pending }

// InFlight returns the unacknowledged bytes.
func (f *Flow) InFlight() int64 { return f.inFlight }

// Cwnd returns the congestion window in bytes.
func (f *Flow) Cwnd() float64 { return f.cwnd }

// DeliveredTotal returns the cumulative application (goodput) bytes
// delivered to the UE.
func (f *Flow) DeliveredTotal() int64 { return f.appDelivered }

// WireDelivered returns the cumulative radio bytes delivered, including
// protocol overhead.
func (f *Flow) WireDelivered() int64 { return f.wireDelivered }

// LossEvents returns the number of congestion (window-cut) episodes.
func (f *Flow) LossEvents() int64 { return f.lossEvents }

// BandwidthEstimateBps returns the Westwood bandwidth estimate in bits/s.
func (f *Flow) BandwidthEstimateBps() float64 {
	return f.bweBytesPerTTI * 8 * lte.TTIsPerSecond
}

// Tick gives the flow a chance to (re)fill the radio queue; the cell
// simulator calls it each TTI for greedy flows whose queue has drained.
func (f *Flow) Tick() {
	if f.greedy || f.pending > 0 {
		f.trySend()
	}
}

func (f *Flow) trySend() {
	now := f.env.NowTTI()
	// Slow-start-after-idle: a connection that went quiet re-probes.
	if f.cfg.IdleResetTTIs > 0 && f.lastSentTTI >= 0 &&
		now-f.lastSentTTI > f.cfg.IdleResetTTIs && f.inFlight == 0 {
		f.cwnd = float64(f.cfg.InitialWindow * f.cfg.MSS)
	}

	window := int64(f.cwnd) - f.inFlight
	if window <= 0 {
		return
	}
	want := window
	if !f.greedy {
		if f.pending < want {
			want = f.pending
		}
		if want <= 0 {
			return
		}
	}
	accepted := f.bearer.Enqueue(want)
	if accepted > 0 {
		f.lastSentTTI = now
		f.inFlight += accepted
		if !f.greedy {
			f.pending -= accepted
		}
	}
	if dropped := want - accepted; dropped > 0 {
		// Queue overflow. The dropped bytes stay in pending (only the
		// accepted bytes were subtracted), which models their
		// retransmission; the sender notices the loss via duplicate
		// ACKs about one RTT later.
		f.lostTotal += dropped
		if !f.inRecovery {
			f.inRecovery = true
			f.env.ScheduleHandler(f.cfg.RTTTTIs, (*lossTimer)(f))
		}
	}
}

// onLossDetected applies the Westwood cut: ssthresh from the bandwidth
// estimate times the base RTT, window collapsed to ssthresh.
func (f *Flow) onLossDetected() {
	bdp := f.bweBytesPerTTI * float64(f.cfg.RTTTTIs)
	floor := float64(2 * f.cfg.MSS)
	if bdp < floor {
		bdp = floor
	}
	f.ssthresh = bdp
	f.cwnd = bdp
	f.inRecovery = false
	f.lossEvents++
	f.trySend()
}

// onRadioDeliver runs when the eNodeB drains bytes to the UE. The
// receiver strips the protocol overhead: the application sees the
// cumulative wire bytes divided by the overhead factor.
func (f *Flow) onRadioDeliver(bytes int64) {
	f.wireDelivered += bytes
	newApp := int64(float64(f.wireDelivered)/f.cfg.OverheadFactor) - f.appDelivered
	if newApp > 0 {
		f.appDelivered += newApp
		if f.OnDelivered != nil {
			f.OnDelivered.Fire(newApp)
		}
	}
	// The ACK reaches the sender half an RTT later.
	delay := f.cfg.RTTTTIs / 2
	if delay < 1 {
		delay = 1
	}
	f.env.ScheduleHandlerArg(delay, (*ackTimer)(f), bytes)
}

func (f *Flow) onAck(bytes int64) {
	now := f.env.NowTTI()
	f.inFlight -= bytes
	if f.inFlight < 0 {
		f.inFlight = 0
	}

	// Westwood bandwidth estimation from the ACK stream.
	if f.lastAckTTI >= 0 {
		dt := now - f.lastAckTTI
		if dt < 1 {
			dt = 1
		}
		sample := float64(bytes) / float64(dt)
		const alpha = 0.1
		f.bweBytesPerTTI += alpha * (sample - f.bweBytesPerTTI)
	} else {
		f.bweBytesPerTTI = float64(bytes) / float64(f.cfg.RTTTTIs)
	}
	f.lastAckTTI = now

	// Window growth.
	if f.cwnd < f.ssthresh {
		f.cwnd += float64(bytes) // slow start
	} else {
		f.cwnd += float64(f.cfg.MSS) * float64(bytes) / f.cwnd // CA
	}
	f.trySend()
}
