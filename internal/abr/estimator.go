// Package abr implements the client-side rate-adaptation algorithms the
// paper evaluates: FESTIVE (Jiang et al., CoNEXT'12), GOOGLE (the
// MPEG-DASH / Media Source demo player heuristic), the simple
// throughput-chasing client used with AVIS, and the FLARE plugin that
// strictly follows the bitrate assigned by the OneAPI server.
package abr

import "github.com/flare-sim/flare/internal/metrics"

// History is a fixed-capacity window of recent per-segment throughput
// samples (bits/s) with the aggregate views the adapters need. The
// samples are kept oldest first in one array sized at construction —
// a full window slides down by one on Add — so every view is a
// sub-slice of it and a session's estimates allocate nothing.
type History struct {
	samples []float64 // len = samples held, cap = the window
}

// NewHistory creates a history holding up to n samples. n must be
// positive; it is clamped to 1 otherwise.
func NewHistory(n int) *History {
	if n < 1 {
		n = 1
	}
	return &History{samples: make([]float64, 0, n)}
}

// Add records a throughput sample, dropping the oldest of a full window.
func (h *History) Add(bps float64) {
	if len(h.samples) == cap(h.samples) {
		h.samples = h.samples[:copy(h.samples, h.samples[1:])]
	}
	h.samples = append(h.samples, bps)
}

// Len returns the number of recorded samples (up to capacity).
func (h *History) Len() int { return len(h.samples) }

// values returns the most recent min(k, Len) samples, oldest first. The
// slice is the history's own: read it, do not keep or write it.
func (h *History) values(k int) []float64 {
	n := len(h.samples)
	if k > n {
		k = n
	}
	return h.samples[n-k:]
}

// HarmonicMean returns the harmonic mean of the last k samples (all when
// k <= 0), or 0 when empty. HAS systems use the harmonic mean because it
// is robust to single large outliers.
func (h *History) HarmonicMean(k int) float64 {
	if k <= 0 {
		k = h.Len()
	}
	return metrics.HarmonicMean(h.values(k))
}

// Mean returns the arithmetic mean of the last k samples (all when
// k <= 0), or 0 when empty.
func (h *History) Mean(k int) float64 {
	if k <= 0 {
		k = h.Len()
	}
	return metrics.Mean(h.values(k))
}

// Last returns the most recent sample, or 0 when empty.
func (h *History) Last() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.samples[len(h.samples)-1]
}
