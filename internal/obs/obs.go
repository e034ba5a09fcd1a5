// Package obs is the observability layer of the FLARE reproduction: a
// typed, allocation-free event model covering every decision point of
// the coordination loop (BAI solves, Algorithm-1 clamps, PCEF installs,
// poll/fallback transitions, stalls, fault injections, kernel jumps), a
// fixed-size flight-recorder ring with dump-on-error, streaming sinks
// (JSONL for flaretrace, in-memory for tests), and runtime counters /
// histograms exported in Prometheus text and expvar form.
//
// The package is engineered around one invariant: a disabled recorder
// costs nothing. "Disabled" is spelled *(nil *Recorder)* — every method
// is nil-safe — so instrumented code holds a possibly-nil *Recorder and
// calls it unconditionally. Call sites build the fixed-size Event value
// on the stack; with a nil recorder, Emit returns before touching it,
// and the Go compiler keeps the value from escaping. The engine
// benchmarks gate this: recording disabled must stay at the PR 3
// allocation floor.
//
// With recording enabled, Emit copies the event into the ring under a
// mutex, bumps the derived counters with atomics, and hands it to each
// sink through a reused encode buffer — no per-event heap allocation on
// the steady state.
package obs

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// DefaultRingSize is the flight recorder's default capacity. At ~160
// bytes per event the default ring holds the last 4096 decisions in
// ~650 KiB — hours of BAI-cadence telemetry for a small cell, seconds
// for a busy one, and always the window that explains a crash.
const DefaultRingSize = 4096

// Options configures a Recorder.
type Options struct {
	// RingSize is the flight-recorder capacity in events; 0 means
	// DefaultRingSize, negative disables the ring (sinks/metrics only).
	RingSize int
	// Sinks receive every event as it is recorded.
	Sinks []Sink
	// NowTTI, when set, supplies the simulated time for events emitted
	// with a zero TTI (the simulation clock). When nil, such events are
	// stamped with wall-clock time instead (live servers).
	NowTTI func() int64
	// ErrorDump, when non-nil, is where DumpOnError writes the ring;
	// nil defaults to os.Stderr.
	ErrorDump io.Writer
}

// Recorder is the nil-safe telemetry handle. A nil *Recorder is the
// disabled state: every method no-ops (and Emit is zero-allocation).
// Construct an enabled one with New.
//
// Recorder is safe for concurrent use; the OneAPI server emits from
// multiple HTTP goroutines.
type Recorder struct {
	mu      sync.Mutex
	ring    []Event
	next    int
	wrapped bool
	sinks   []Sink

	met    Metrics
	nowTTI func() int64
	errW   io.Writer

	// scratch is the event being recorded; pointer work (metrics fold,
	// sink writes) goes through this recorder-owned field so the caller's
	// Event argument never has its address taken and never escapes —
	// that is what keeps Emit allocation-free.
	scratch Event
}

// New builds an enabled recorder.
func New(opts Options) *Recorder {
	size := opts.RingSize
	if size == 0 {
		size = DefaultRingSize
	}
	r := &Recorder{
		sinks:  opts.Sinks,
		nowTTI: opts.NowTTI,
		errW:   opts.ErrorDump,
	}
	if size > 0 {
		r.ring = make([]Event, size)
	}
	return r
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// Metrics returns the recorder's derived counters; nil on a disabled
// recorder (Metrics methods are themselves nil-safe).
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	return &r.met
}

// SetNowTTI installs (or replaces) the simulated-time source used to
// stamp events emitted with a zero TTI. The engine calls this when a
// run starts so one recorder can be built before the Sim exists.
func (r *Recorder) SetNowTTI(now func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.nowTTI = now
	r.mu.Unlock()
}

// Emit records one event: stamps its time, updates the derived
// counters, stores it in the flight-recorder ring, and streams it to
// every sink. On a nil recorder it is a no-op — and because Event is a
// flat value built on the caller's stack, the disabled path allocates
// nothing.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.scratch = e
	ev := &r.scratch
	if ev.TTI == 0 && ev.Wall == 0 {
		if r.nowTTI != nil {
			ev.TTI = r.nowTTI()
		} else {
			ev.Wall = time.Now().UnixNano()
		}
	}
	r.met.observe(ev)
	if len(r.ring) > 0 {
		r.ring[r.next] = *ev
		r.next++
		if r.next == len(r.ring) {
			r.next = 0
			r.wrapped = true
		}
	}
	for _, s := range r.sinks {
		if err := s.Write(ev); err != nil {
			r.met.SinkErrors.Add(1)
		}
	}
	r.mu.Unlock()
}

// Snapshot returns the flight-recorder contents, oldest first. The
// slice is a copy; nil on a disabled recorder or an empty ring.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

func (r *Recorder) snapshotLocked() []Event {
	if len(r.ring) == 0 || (r.next == 0 && !r.wrapped) {
		return nil
	}
	var out []Event
	if r.wrapped {
		out = make([]Event, 0, len(r.ring))
		out = append(out, r.ring[r.next:]...)
		out = append(out, r.ring[:r.next]...)
	} else {
		out = make([]Event, r.next)
		copy(out, r.ring[:r.next])
	}
	return out
}

// Dump writes the flight-recorder contents to w as a JSONL trace
// (schema header first), oldest event first.
func (r *Recorder) Dump(w io.Writer) error {
	if r == nil {
		return nil
	}
	events := r.Snapshot()
	if _, err := fmt.Fprintf(w, "{\"schema\":%q}\n", SchemaVersion); err != nil {
		return err
	}
	var buf []byte
	for i := range events {
		buf = events[i].AppendJSON(buf[:0])
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// DumpOnError writes the flight-recorder ring to the configured error
// destination (default stderr) with a one-line banner naming err — the
// crash-context dump a production controller prints before dying. It
// no-ops on a nil recorder or a nil error.
func (r *Recorder) DumpOnError(err error) {
	if r == nil || err == nil {
		return
	}
	w := r.errW
	if w == nil {
		w = os.Stderr
	}
	fmt.Fprintf(w, "obs: flight recorder dump (%d events) after error: %v\n", len(r.Snapshot()), err)
	_ = r.Dump(w)
}

// Close closes every sink. The recorder stays usable (ring and
// counters); further emits simply reach no sinks.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	sinks := r.sinks
	r.sinks = nil
	r.mu.Unlock()
	var firstErr error
	for _, s := range sinks {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
