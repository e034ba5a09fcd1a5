// The matrix-native scenarios: workloads that exist only as axis
// points, with no bespoke experiment code behind them. Each body is the
// declarative pattern the harness is for — compile the axes, run the
// point, assert the claim, record the standard metrics. Their names,
// axes and matrices sit in the scenario table (specs.go).
package flaresuite

import (
	"fmt"

	"github.com/flare-sim/flare/internal/metrics"
)

// flashCrowd is the flash-crowd body: every client of the burst reaches
// playback and, under FLARE, the resident cohort never rebuffers.
func flashCrowd(t *T) {
	results := t.MustRunPoint()
	t.RecordStandard(results)
	var residentStalls float64
	for _, r := range results {
		n := len(r.Clients)
		residents := FlashResidents(n)
		started := 0
		for i, c := range r.Clients {
			t.AssertTrue(c.Segments > 0, "client %d downloaded nothing through the burst", c.FlowID)
			if c.StartupDelaySeconds >= 0 {
				started++
			}
			if i < residents {
				residentStalls += c.StallSeconds
			}
		}
		t.AssertTrue(started == n, "only %d/%d clients reached playback after the burst", started, n)
	}
	t.Metric("resident_stall_s", residentStalls)
	if t.Axes().Mix == MixFLARE {
		t.AssertTrue(residentStalls == 0,
			"resident cohort rebuffered %.1f s under the burst; coordination should hold their floors", residentStalls)
	}
}

// hetLadders is the het-ladders body: every client streams, at a mean
// encoding rate inside its ladder.
func hetLadders(t *T) {
	results := t.MustRunPoint()
	t.RecordStandard(results)
	cfg := t.build(t.axes)
	for _, r := range results {
		for _, c := range r.Clients {
			t.AssertTrue(c.Segments > 0, "client %d downloaded nothing", c.FlowID)
			t.AssertInRange(fmt.Sprintf("client %d mean encoding rate", c.FlowID),
				c.AvgRateBps, cfg.Ladder.Min(), cfg.Ladder.Max())
		}
	}
}

// churnSoak is the churn-soak body: each third of the arrival sequence
// sees the same mean encoding rate.
func churnSoak(t *T) {
	results := t.MustRunPoint()
	t.RecordStandard(results)
	maxDev := 0.0
	for _, r := range results {
		// Clients are in arrival order (the churn generator's schedule);
		// stationarity = each third of the arrival sequence sees the
		// same mean encoding rate, i.e. the soak neither drifts nor
		// starves late arrivals.
		var rates []float64
		for _, c := range r.Clients {
			if c.Segments > 0 {
				rates = append(rates, c.AvgRateBps)
			}
		}
		if len(rates) < 9 {
			t.Errorf("only %d sessions completed a segment; the soak needs a sustained population", len(rates))
			continue
		}
		overall := metrics.Mean(rates)
		third := len(rates) / 3
		for k := 0; k < 3; k++ {
			lo, hi := k*third, (k+1)*third
			if k == 2 {
				hi = len(rates)
			}
			dev := metrics.Mean(rates[lo:hi]) / overall
			if d := absDev(dev); d > maxDev {
				maxDev = d
			}
			t.AssertInRange(fmt.Sprintf("arrival-third %d mean rate vs overall", k+1), dev, 0.5, 1.5)
		}
	}
	t.Metric("stationarity_max_dev", maxDev)
}

// absDev returns |ratio - 1|.
func absDev(ratio float64) float64 {
	if ratio < 1 {
		return 1 - ratio
	}
	return ratio - 1
}
