package flaresuite

import (
	"fmt"
	"time"

	"github.com/flare-sim/flare/internal/cellsim"
	"github.com/flare-sim/flare/internal/faults"
	"github.com/flare-sim/flare/internal/metrics"
)

// extFaultsLossRates is the control-plane loss sweep: from the paper's
// implicit fault-free operating point up to a control plane losing half
// of all exchanges.
var extFaultsLossRates = []float64{0, 0.1, 0.3, 0.5}

// extFaults measures FLARE's graceful degradation under control-plane
// faults — the scenario the paper's OneAPI overlay deployment implies
// but never evaluates. Statistics reports and assignment polls are
// dropped at increasing rates (plus one total-blackout scenario); the
// FLARE plugins fall back to a local throughput ABR when coordination is
// lost. The claim under test: FLARE's QoE degrades toward — and never
// below — a pure client-side baseline (FESTIVE), because a degraded
// FLARE plugin *is* a conventional client-side player.
func extFaults(t *T) *Report {
	rep := &Report{
		ID:    "ext-faults",
		Title: "Extension — QoE degradation under control-plane faults",
	}

	// The pure client-side baseline has no control plane to lose:
	// one fault-free FESTIVE run set serves every sweep point.
	baseCfg := SimConfig(cellsim.SchemeFESTIVE, false, t.scale)
	baseResults := t.runs(baseCfg)
	baselineQoE := meanQoE(baseResults)
	baselineRate := metrics.Mean(pooled(baseResults, (*cellsim.Result).AvgRates))

	tbl := metrics.NewTable("FLARE under control-plane loss (FESTIVE baseline: fault-free)",
		"QoE", "rate Kbps", "stall s", "fallback BAIs", "transitions", "lost rpt/poll")
	var qoeCurve, fallbackCurve []metrics.Point

	for _, loss := range extFaultsLossRates {
		cfg := SimConfig(cellsim.SchemeFLARE, false, t.scale)
		cfg.ControlFaults = faults.Config{Seed: faultSeed, DropRate: loss}
		results := t.runs(cfg)
		row := summarizeFaultRuns(results)
		tbl.AddRow(fmt.Sprintf("FLARE %.0f%% loss", loss*100), row.cells()...)
		qoeCurve = append(qoeCurve, metrics.Point{X: loss, Y: row.qoe})
		fallbackCurve = append(fallbackCurve, metrics.Point{X: loss, Y: row.fallbackBAIs})
		rep.Notef("loss %.0f%%: FLARE QoE %.0f (baseline %.0f), %.0f Kbps, %.1f fallback BAIs/client",
			loss*100, row.qoe, baselineQoE, row.rateKbps, row.fallbackBAIs)
		if row.qoe < baselineQoE {
			rep.Notef("WARNING: FLARE at %.0f%% loss fell below the client-side baseline (%.0f < %.0f)",
				loss*100, row.qoe, baselineQoE)
		}
	}

	// Total blackout through the middle third of the run: every plugin
	// must degrade and recover.
	blk := SimConfig(cellsim.SchemeFLARE, false, t.scale)
	third := blk.Duration / 3
	blk.ControlFaults = faults.Config{
		Seed:      faultSeed,
		Blackouts: []faults.Window{{From: third, To: 2 * third}},
	}
	blkResults := t.runs(blk)
	blkRow := summarizeFaultRuns(blkResults)
	tbl.AddRow(fmt.Sprintf("FLARE blackout %ds", int(third.Seconds())), blkRow.cells()...)
	rep.Notef("blackout %v–%v: QoE %.0f, %d total mode transitions across runs",
		third.Round(time.Second), (2 * third).Round(time.Second), blkRow.qoe, blkRow.totalTransitions)

	tbl.AddRow("FESTIVE (baseline)",
		fmt.Sprintf("%.0f", baselineQoE),
		fmt.Sprintf("%.0f", baselineRate/1000),
		fmt.Sprintf("%.1f", meanStalls(baseResults)),
		"-", "-", "-")
	rep.Tables = append(rep.Tables, tbl)

	rep.Series = append(rep.Series,
		metrics.Series{Name: "flare/qoe_vs_ctrl_loss", Points: qoeCurve},
		metrics.Series{Name: "flare/fallback_bais_vs_ctrl_loss", Points: fallbackCurve},
		metrics.Series{Name: "festive/qoe_baseline", Points: []metrics.Point{
			{X: extFaultsLossRates[0], Y: baselineQoE},
			{X: extFaultsLossRates[len(extFaultsLossRates)-1], Y: baselineQoE},
		}},
	)
	return rep
}

// faultRow aggregates one sweep point.
type faultRow struct {
	qoe              float64
	rateKbps         float64
	stallSec         float64
	fallbackBAIs     float64 // mean per client
	meanTransitions  float64 // mean per client
	totalTransitions int
	reportsLost      int
	pollsLost        int
}

func (r faultRow) cells() []string {
	return []string{
		fmt.Sprintf("%.0f", r.qoe),
		fmt.Sprintf("%.0f", r.rateKbps),
		fmt.Sprintf("%.1f", r.stallSec),
		fmt.Sprintf("%.1f", r.fallbackBAIs),
		fmt.Sprintf("%.1f", r.meanTransitions),
		fmt.Sprintf("%d/%d", r.reportsLost, r.pollsLost),
	}
}

func summarizeFaultRuns(results []*cellsim.Result) faultRow {
	var row faultRow
	var qoes, rates, stalls, fbBAIs, trans []float64
	for _, r := range results {
		for _, c := range r.Clients {
			qoes = append(qoes, c.QoEScore)
			rates = append(rates, c.AvgRateBps)
			stalls = append(stalls, c.StallSeconds)
			fbBAIs = append(fbBAIs, float64(c.FallbackIntervals))
			trans = append(trans, float64(c.FallbackTransitions))
			row.totalTransitions += c.FallbackTransitions
		}
		row.reportsLost += r.ControlPlane.ReportsLost
		row.pollsLost += r.ControlPlane.PollsLost
	}
	row.qoe = metrics.Mean(qoes)
	row.rateKbps = metrics.Mean(rates) / 1000
	row.stallSec = metrics.Mean(stalls)
	row.fallbackBAIs = metrics.Mean(fbBAIs)
	row.meanTransitions = metrics.Mean(trans)
	return row
}

func meanQoE(results []*cellsim.Result) float64 {
	var scores []float64
	for _, r := range results {
		for _, c := range r.Clients {
			scores = append(scores, c.QoEScore)
		}
	}
	return metrics.Mean(scores)
}

func meanStalls(results []*cellsim.Result) float64 {
	var stalls []float64
	for _, r := range results {
		for _, c := range r.Clients {
			stalls = append(stalls, c.StallSeconds)
		}
	}
	return metrics.Mean(stalls)
}
