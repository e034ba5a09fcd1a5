package cellsim

import (
	"github.com/flare-sim/flare/internal/cellsim/driver"
	"github.com/flare-sim/flare/internal/metrics"
)

// ClientResult is one video client's outcome over a run.
type ClientResult struct {
	// FlowID is the client's bearer ID.
	FlowID int
	// Scheme is the rate-adaptation system that ran this client — in
	// mixed-scheme cells (Config.VideoGroups) clients of different
	// schemes share the Clients slice and this field attributes them.
	Scheme Scheme
	// AvgRateBps is the mean encoding bitrate over downloaded segments
	// — the paper's "average video rate".
	AvgRateBps float64
	// AvgTputBps is the mean delivered (transmitted) rate over the run
	// — the basis of the paper's Jain index "for actually transmitted
	// bitrates".
	AvgTputBps float64
	// NumChanges is the number of bitrate switches between consecutive
	// segments.
	NumChanges int
	// Segments is the number of completed segment downloads.
	Segments int
	// StallSeconds is the total rebuffering time after playback start.
	StallSeconds float64
	// StallCount is the number of rebuffering events.
	StallCount int
	// StartupDelaySeconds is the time from session start to first
	// playback (-1 if playback never started).
	StartupDelaySeconds float64
	// QoEScore is the composite per-segment QoE (see internal/qoe) with
	// default weights.
	QoEScore float64
	// FallbackTransitions counts the FLARE plugin's coordination-mode
	// switches (degradations to local ABR plus recoveries); 0 for
	// non-FLARE schemes and for fault-free runs.
	FallbackTransitions int
	// FallbackIntervals counts control-plane intervals (BAIs) the
	// plugin spent degraded to its local ABR.
	FallbackIntervals int
	// Admitted reports whether the flow's session was admitted by the
	// network control plane. Always true except under FLARE admission
	// control, where a refused flow plays out on its local ABR.
	Admitted bool
	// StallSecondsPreAdmit is the portion of StallSeconds accrued before
	// the session was admitted (plus a short settling window after a
	// mid-stream admission): starvation from the unadmitted local-ABR
	// period. StallSeconds - StallSecondsPreAdmit is the rebuffering the
	// coordinated plane is answerable for. Zero without admission
	// control.
	StallSecondsPreAdmit float64
}

// ControlPlaneStats aggregates control-plane fault activity over a run
// (schemes with a network control plane only; all zero for fault-free
// runs). It is the driver layer's ControlStats, re-exported so existing
// callers keep compiling.
type ControlPlaneStats = driver.ControlStats

// DataResult is one data flow's outcome.
type DataResult struct {
	// FlowID is the flow's bearer ID.
	FlowID int
	// AvgTputBps is the mean delivered rate over the run.
	AvgTputBps float64
}

// Result is the complete outcome of one simulation run.
type Result struct {
	// Scheme echoes the system under test.
	Scheme Scheme
	// Clients holds the per-video-client outcomes, in flow-ID order.
	Clients []ClientResult
	// Data holds the per-data-flow outcomes.
	Data []DataResult
	// Legacy is always nil: conventional players are a video group
	// now, reported in Clients. It only keeps a Result's JSON encoding,
	// which the perf ledger's stored digests hash, byte-identical, and
	// goes when bench/baseline.json is next re-recorded.
	Legacy *struct{}
	// SolveTimesSec are the FLARE optimiser wall times per BAI
	// (empty for the other schemes) — the Figure 9 measurement.
	SolveTimesSec []float64
	// ControlPlane summarises injected control-plane fault activity.
	ControlPlane ControlPlaneStats

	// Per-flow time series, populated when Config.CollectSeries is set:
	// selected video rate (bps), playout buffer (s), and data flow
	// throughput (bps), sampled every second.
	VideoRateSeries []*metrics.TimeSeries
	BufferSeries    []*metrics.TimeSeries
	DataTputSeries  []*metrics.TimeSeries
}

// ClientsByScheme returns the clients that ran under the given scheme,
// in flow-ID order — the per-group view of a mixed-scheme cell.
func (r *Result) ClientsByScheme(s Scheme) []ClientResult {
	var out []ClientResult
	for _, c := range r.Clients {
		if c.Scheme == s {
			out = append(out, c)
		}
	}
	return out
}

// AvgRates returns the per-client average bitrates (for CDFs and Jain).
func (r *Result) AvgRates() []float64 {
	out := make([]float64, len(r.Clients))
	for i, c := range r.Clients {
		out[i] = c.AvgRateBps
	}
	return out
}

// AvgTputs returns the per-client transmitted rates.
func (r *Result) AvgTputs() []float64 {
	out := make([]float64, len(r.Clients))
	for i, c := range r.Clients {
		out[i] = c.AvgTputBps
	}
	return out
}

// Changes returns the per-client bitrate-change counts.
func (r *Result) Changes() []float64 {
	out := make([]float64, len(r.Clients))
	for i, c := range r.Clients {
		out[i] = float64(c.NumChanges)
	}
	return out
}

// DataTputs returns the per-data-flow throughputs.
func (r *Result) DataTputs() []float64 {
	out := make([]float64, len(r.Data))
	for i, d := range r.Data {
		out[i] = d.AvgTputBps
	}
	return out
}

// TotalStallSeconds sums rebuffering time across clients.
func (r *Result) TotalStallSeconds() float64 {
	var s float64
	for _, c := range r.Clients {
		s += c.StallSeconds
	}
	return s
}

// MeanClientRate returns the across-client mean of AvgRateBps.
func (r *Result) MeanClientRate() float64 {
	return metrics.Mean(r.AvgRates())
}

// MeanChanges returns the across-client mean switch count.
func (r *Result) MeanChanges() float64 {
	return metrics.Mean(r.Changes())
}

// JainOfTputs returns Jain's fairness index over the transmitted rates.
func (r *Result) JainOfTputs() float64 {
	return metrics.JainIndex(r.AvgTputs())
}

// JainOfRates returns Jain's fairness index over the average video rates.
func (r *Result) JainOfRates() float64 {
	return metrics.JainIndex(r.AvgRates())
}

// TotalFallbackTransitions sums coordination-mode switches across
// clients.
func (r *Result) TotalFallbackTransitions() int {
	var n int
	for _, c := range r.Clients {
		n += c.FallbackTransitions
	}
	return n
}
