// Package faults is a deterministic, seedable control-plane fault
// injector for the OneAPI coordination overlay.
//
// FLARE's premise is client/network coordination over a control plane
// that, in deployment, rides a real network: statistics reports can be
// lost, plugin polls can time out, the OneAPI server can restart, and a
// PCEF can refuse a GBR install. The injector models those failures two
// ways with one configuration:
//
//   - in-process: the simulator (internal/cellsim) asks Decide before
//     each control-plane exchange and drops/fails the exchange;
//   - on the wire: RoundTripper wraps the JSON/HTTP binding's transport
//     and Middleware wraps the server handler (see http.go).
//
// Determinism is preserved by construction: every Injector owns its own
// splitmix64 stream, so a zero-rate configuration draws nothing and a
// configured one never perturbs the simulation's primary RNG.
package faults

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/flare-sim/flare/internal/sim"
)

// Outcome classifies what the injector did to one exchange.
type Outcome int

// Outcomes, in decision order.
const (
	// Pass lets the exchange through untouched.
	Pass Outcome = iota
	// Drop loses the exchange entirely (network loss / server down);
	// the caller sees a transport error, never a response.
	Drop
	// Fail delivers the exchange but the far side errors (HTTP 503).
	Fail
	// Delay holds the exchange for Decision.Delay before delivery.
	Delay
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Pass:
		return "pass"
	case Drop:
		return "drop"
	case Fail:
		return "fail"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Window is a half-open interval of simulated (or wall) time during
// which the control plane is entirely unreachable — e.g. "server
// blackout from t=60s to t=90s".
type Window struct {
	// From is the inclusive start of the blackout.
	From time.Duration
	// To is the exclusive end of the blackout.
	To time.Duration
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Duration) bool {
	return t >= w.From && t < w.To
}

// ParseWindows parses comma-separated "from-to" blackout windows, e.g.
// "60s-90s, 300s-330s". It checks only the syntax: Config.Validate
// refuses an empty window.
func ParseWindows(s string) ([]Window, error) {
	var out []Window
	for _, part := range strings.Split(s, ",") {
		from, to, ok := strings.Cut(strings.TrimSpace(part), "-")
		if !ok {
			return nil, fmt.Errorf("blackout %q: want \"from-to\" (e.g. 60s-90s)", part)
		}
		f, err := time.ParseDuration(from)
		if err != nil {
			return nil, fmt.Errorf("blackout %q: %w", part, err)
		}
		t, err := time.ParseDuration(to)
		if err != nil {
			return nil, fmt.Errorf("blackout %q: %w", part, err)
		}
		out = append(out, Window{From: f, To: t})
	}
	return out, nil
}

// Config describes a fault schedule. The zero value injects nothing.
type Config struct {
	// Seed drives the injector's private RNG stream. Two injectors
	// with the same seed and config make identical decisions.
	Seed uint64
	// DropRate is the probability an exchange is silently lost.
	DropRate float64
	// FailRate is the probability the far side returns an error.
	FailRate float64
	// DelayRate is the probability an exchange is held for DelayBy.
	DelayRate float64
	// DelayBy is how long delayed exchanges are held.
	DelayBy time.Duration
	// Blackouts are scheduled total outages; inside a window every
	// exchange drops regardless of the rates.
	Blackouts []Window
}

// Enabled reports whether the configuration can ever inject a fault.
func (c Config) Enabled() bool {
	return c.DropRate > 0 || c.FailRate > 0 || c.DelayRate > 0 ||
		len(c.Blackouts) > 0
}

// Validate checks rates and windows.
func (c Config) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"drop", c.DropRate}, {"fail", c.FailRate}, {"delay", c.DelayRate},
	}
	sum := 0.0
	for _, r := range rates {
		if !(r.v >= 0 && r.v <= 1) { // NaN included
			return fmt.Errorf("faults: %s rate %v out of [0, 1]", r.name, r.v)
		}
		sum += r.v
	}
	if sum > 1 {
		return fmt.Errorf("faults: rates sum to %v > 1", sum)
	}
	if c.DelayRate > 0 && c.DelayBy <= 0 {
		return fmt.Errorf("faults: delay rate %v needs a positive DelayBy", c.DelayRate)
	}
	for _, w := range c.Blackouts {
		if w.To <= w.From {
			return fmt.Errorf("faults: blackout window [%v, %v) is empty", w.From, w.To)
		}
	}
	return nil
}

// Decision is one exchange's fate.
type Decision struct {
	// Outcome is what happens to the exchange.
	Outcome Outcome
	// Delay is how long to hold it (Outcome == Delay only).
	Delay time.Duration
}

// Lost reports whether the exchange never completes usefully
// (dropped or failed) — the caller-facing "did coordination happen".
func (d Decision) Lost() bool { return d.Outcome == Drop || d.Outcome == Fail }

// Counts aggregates injector activity for reports and tests.
type Counts struct {
	Total, Passed, Dropped, Failed, Delayed int64
	// BlackoutDrops is the subset of Dropped caused by a schedule
	// window rather than the random rate.
	BlackoutDrops int64
}

// Observer is notified of every injected (non-Pass) decision, outside
// the injector's lock. The telemetry layer uses it to turn injected
// faults into trace events without the injector importing obs.
type Observer func(now time.Duration, d Decision)

// Injector makes deterministic per-exchange fault decisions. It is safe
// for concurrent use (the HTTP transport shares one across goroutines);
// under concurrency the decision *sequence* stays deterministic while
// the assignment of decisions to callers follows arrival order.
type Injector struct {
	mu       sync.Mutex
	cfg      Config
	rng      *sim.RNG
	counts   Counts
	observer Observer
}

// New builds an injector; a nil return never occurs, and a zero Config
// yields an injector that always passes without drawing randomness.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: sim.NewRNG(cfg.Seed)}
}

// Config returns the injector's configuration.
func (in *Injector) Config() Config {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.cfg
}

// Enabled reports whether the injector can ever inject a fault.
func (in *Injector) Enabled() bool { return in.Config().Enabled() }

// SetObserver installs a decision observer (nil removes it). It fires
// synchronously in Decide, after the counters are updated and the lock
// is released, for every decision whose outcome is not Pass.
func (in *Injector) SetObserver(fn Observer) {
	in.mu.Lock()
	in.observer = fn
	in.mu.Unlock()
}

// Decide seals the fate of one exchange occurring at time now. A
// disabled injector returns Pass without consuming randomness.
func (in *Injector) Decide(now time.Duration) Decision {
	d := in.decideLocked(now)
	if d.Outcome != Pass {
		in.mu.Lock()
		fn := in.observer
		in.mu.Unlock()
		if fn != nil {
			fn(now, d)
		}
	}
	return d
}

func (in *Injector) decideLocked(now time.Duration) Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.counts.Total++
	if !in.cfg.Enabled() {
		in.counts.Passed++
		return Decision{Outcome: Pass}
	}
	for _, w := range in.cfg.Blackouts {
		if w.Contains(now) {
			in.counts.Dropped++
			in.counts.BlackoutDrops++
			return Decision{Outcome: Drop}
		}
	}
	// A single draw partitions [0, 1) across the outcomes so one
	// exchange suffers at most one fault.
	u := in.rng.Float64()
	switch {
	case u < in.cfg.DropRate:
		in.counts.Dropped++
		return Decision{Outcome: Drop}
	case u < in.cfg.DropRate+in.cfg.FailRate:
		in.counts.Failed++
		return Decision{Outcome: Fail}
	case u < in.cfg.DropRate+in.cfg.FailRate+in.cfg.DelayRate:
		in.counts.Delayed++
		return Decision{Outcome: Delay, Delay: in.cfg.DelayBy}
	default:
		in.counts.Passed++
		return Decision{Outcome: Pass}
	}
}

// Counts returns a snapshot of the injector's activity.
func (in *Injector) Counts() Counts {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts
}
