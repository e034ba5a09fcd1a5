package flaresuite

import (
	"fmt"

	"github.com/flare-sim/flare/internal/cellsim"
	"github.com/flare-sim/flare/internal/metrics"
)

// coexistAxes is the ext-coexist cell: half the video population
// FLARE-coordinated and half running unmodified FESTIVE, as a
// first-class mixed-scheme deployment (Config.VideoGroups). The FLARE
// controller sees the FESTIVE flows as competing data traffic; the
// radio serves FLARE's GBRs first and everything else proportionally
// fair. The cell is the dynamic testbed scenario (2 s segments, cyclic
// MCS) — the varying channel is what separates coordinated stability
// from FESTIVE's throughput-chasing oscillation, exactly as in Table
// II. Alpha stays at the Table IV default: the "data" reservation here
// exists to keep the conventional players alive, not to favour them.
var coexistAxes = Axes{Channel: ChannelCyclic, Mix: MixFLAREFESTIVE, Ladder: LadderTestbed}

// extCoexist evaluates the paper's Section V deployment claim: FLARE
// "can coexist with conventional HAS players by servicing their traffic
// like other data traffic without any bitrate guarantees", and FLARE
// users "have an incentive to adopt FLARE in order to receive GBR video
// rates". We run 4 coordinated and 4 conventional (FESTIVE) players in
// one cell via the mixed-scheme driver machinery and compare the two
// groups' outcomes.
func extCoexist(t *T) *Report {
	rep := &Report{
		ID:    "ext-coexist",
		Title: "Extension — FLARE + conventional players in one cell (Section V)",
	}
	results := t.runs(t.build(coexistAxes))

	var flareRates, flareChanges, flareStalls []float64
	var legacyRates, legacyChanges, legacyStalls []float64
	for _, r := range results {
		for _, c := range r.ClientsByScheme(cellsim.SchemeFLARE) {
			flareRates = append(flareRates, c.AvgRateBps)
			flareChanges = append(flareChanges, float64(c.NumChanges))
			flareStalls = append(flareStalls, c.StallSeconds)
		}
		for _, c := range r.ClientsByScheme(cellsim.SchemeFESTIVE) {
			legacyRates = append(legacyRates, c.AvgRateBps)
			legacyChanges = append(legacyChanges, float64(c.NumChanges))
			legacyStalls = append(legacyStalls, c.StallSeconds)
		}
	}

	tbl := metrics.NewTable("Coordinated (FLARE) vs conventional (FESTIVE) players sharing one cell",
		"FLARE", "FESTIVE")
	tbl.AddFloatRow("Average video rate (Kbps)", "%.0f",
		metrics.Mean(flareRates)/1000, metrics.Mean(legacyRates)/1000)
	tbl.AddFloatRow("Average number of bitrate changes", "%.1f",
		metrics.Mean(flareChanges), metrics.Mean(legacyChanges))
	tbl.AddFloatRow("Average rebuffering (sec)", "%.1f",
		metrics.Mean(flareStalls), metrics.Mean(legacyStalls))
	rep.Tables = append(rep.Tables, tbl)

	rep.Series = append(rep.Series,
		metrics.SeriesFromCDF("flare/avg_bitrate_bps", metrics.NewCDF(flareRates), cdfPoints),
		metrics.SeriesFromCDF("festive/avg_bitrate_bps", metrics.NewCDF(legacyRates), cdfPoints),
	)
	rep.Notef("FLARE players: %.0f Kbps, %.1f changes, %.1f s stalled; FESTIVE players: %.0f Kbps, %.1f changes, %.1f s stalled — the adoption incentive is the gap",
		metrics.Mean(flareRates)/1000, metrics.Mean(flareChanges), metrics.Mean(flareStalls),
		metrics.Mean(legacyRates)/1000, metrics.Mean(legacyChanges), metrics.Mean(legacyStalls))
	return rep
}

// extABR compares FLARE against the wider client-side ABR literature
// the paper cites: FESTIVE and GOOGLE (the paper's baselines) plus
// buffer-based BBA-0 and RobustMPC (extension baselines).
func extABR(t *T) *Report {
	rep := &Report{
		ID:    "ext-abr",
		Title: "Extension — FLARE vs the client-side ABR literature",
	}
	schemes := []cellsim.Scheme{
		cellsim.SchemeFLARE, cellsim.SchemeFESTIVE, cellsim.SchemeGOOGLE,
		cellsim.SchemeBBA, cellsim.SchemeMPC,
	}
	tbl := metrics.NewTable("Mobile scenario, 8 clients",
		"rate Kbps", "changes", "stall s", "QoE")
	for _, scheme := range schemes {
		results := t.runs(SimConfig(scheme, true, t.scale))
		rates := pooled(results, (*cellsim.Result).AvgRates)
		changes := pooled(results, (*cellsim.Result).Changes)
		var stalls, scores []float64
		for _, r := range results {
			for _, c := range r.Clients {
				stalls = append(stalls, c.StallSeconds)
				scores = append(scores, c.QoEScore)
			}
		}
		tbl.AddRow(scheme.String(),
			fmt.Sprintf("%.0f", metrics.Mean(rates)/1000),
			fmt.Sprintf("%.1f", metrics.Mean(changes)),
			fmt.Sprintf("%.1f", metrics.Mean(stalls)),
			fmt.Sprintf("%.0f", metrics.Mean(scores)),
		)
		rep.Series = append(rep.Series,
			metrics.SeriesFromCDF(fmt.Sprintf("%s/avg_bitrate_bps", scheme),
				metrics.NewCDF(rates), cdfPoints))
		rep.Notef("%s: %.0f Kbps, %.1f changes, %.1f s stalled, QoE %.0f",
			scheme, metrics.Mean(rates)/1000, metrics.Mean(changes), metrics.Mean(stalls), metrics.Mean(scores))
	}
	rep.Tables = append(rep.Tables, tbl)
	return rep
}
