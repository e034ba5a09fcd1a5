package flaresuite

import (
	"fmt"

	"github.com/flare-sim/flare/internal/cellsim"
	"github.com/flare-sim/flare/internal/metrics"
)

// testbedSchemes are the players compared on the femtocell (Section IV-A).
var testbedSchemes = []cellsim.Scheme{
	cellsim.SchemeFESTIVE, cellsim.SchemeGOOGLE, cellsim.SchemeFLARE,
}

// testbedTable produces the Table I / Table II summary.
func testbedTable(t *T, id, title string, dynamic bool) *Report {
	rep := &Report{ID: id, Title: title}
	tbl := metrics.NewTable(title, "FESTIVE", "GOOGLE", "FLARE")

	var avgRate, stall, changes, jain, dataTput []float64
	for _, scheme := range testbedSchemes {
		results := t.runs(TestbedConfig(scheme, dynamic, t.scale))
		rates := pooled(results, (*cellsim.Result).AvgRates)
		chs := pooled(results, (*cellsim.Result).Changes)
		var stalls, jains, datas []float64
		for _, r := range results {
			for _, c := range r.Clients {
				stalls = append(stalls, c.StallSeconds)
			}
			jains = append(jains, r.JainOfRates())
			datas = append(datas, r.DataTputs()...)
		}
		avgRate = append(avgRate, metrics.Mean(rates)/1000)
		stall = append(stall, metrics.Mean(stalls))
		changes = append(changes, metrics.Mean(chs))
		jain = append(jain, metrics.Mean(jains))
		dataTput = append(dataTput, metrics.Mean(datas)/1000)
	}

	tbl.AddFloatRow("Average video rate (Kbps)", "%.0f", avgRate...)
	tbl.AddFloatRow("Average time that the buffer is underflowed (sec)", "%.1f", stall...)
	tbl.AddFloatRow("Average number of bitrate changes", "%.1f", changes...)
	tbl.AddFloatRow("Jain's fairness index of average video rates", "%.3f", jain...)
	tbl.AddFloatRow("Average throughput of data flow (Kbps)", "%.0f", dataTput...)
	rep.Tables = append(rep.Tables, tbl)

	rep.Notef("FLARE changes=%.1f vs FESTIVE=%.1f, GOOGLE=%.1f (paper: FLARE fewest)",
		changes[2], changes[0], changes[1])
	rep.Notef("rebuffering: FESTIVE=%.1fs GOOGLE=%.1fs FLARE=%.1fs (paper: only GOOGLE rebuffers)",
		stall[0], stall[1], stall[2])
	rep.Notef("data flow: FESTIVE=%.0fK GOOGLE=%.0fK FLARE=%.0fK (paper: FESTIVE > FLARE > GOOGLE)",
		dataTput[0], dataTput[1], dataTput[2])
	return rep
}

// table1 reproduces Table I (static testbed).
func table1(t *T) *Report {
	return testbedTable(t, "table1", "Table I — static scenario summary", false)
}

// table2 reproduces Table II (dynamic testbed).
func table2(t *T) *Report {
	return testbedTable(t, "table2", "Table II — dynamic scenario summary", true)
}

// timeseriesFigure produces the Figure 4 / Figure 5 per-second views
// from one run per scheme.
func timeseriesFigure(t *T, id, title string, dynamic bool) *Report {
	rep := &Report{ID: id, Title: title}
	for _, scheme := range testbedSchemes {
		cfg := TestbedConfig(scheme, dynamic, t.scale)
		cfg.CollectSeries = true
		res, err := cellsim.RunContext(t.ctx, cfg)
		if err != nil {
			t.Fatalf("%v", err)
		}
		const maxPts = 600
		for i, ts := range res.VideoRateSeries {
			rep.Series = append(rep.Series, metrics.SeriesFromTimeSeries(
				fmt.Sprintf("%s/video%d/rate_bps", scheme, i), ts, maxPts))
		}
		for i, ts := range res.BufferSeries {
			rep.Series = append(rep.Series, metrics.SeriesFromTimeSeries(
				fmt.Sprintf("%s/video%d/buffer_s", scheme, i), ts, maxPts))
		}
		for i, ts := range res.DataTputSeries {
			rep.Series = append(rep.Series, metrics.SeriesFromTimeSeries(
				fmt.Sprintf("%s/data%d/tput_bps", scheme, i), ts, maxPts))
		}
		rep.Notef("%s: mean rate %.0f Kbps, %.1f changes/client, %.1f s stalled",
			scheme, res.MeanClientRate()/1000, res.MeanChanges(), res.TotalStallSeconds())
	}
	return rep
}

// fig4 reproduces Figure 4 (static time series).
func fig4(t *T) *Report {
	return timeseriesFigure(t, "fig4", "Figure 4 — static scenario time series", false)
}

// fig5 reproduces Figure 5 (dynamic time series).
func fig5(t *T) *Report {
	return timeseriesFigure(t, "fig5", "Figure 5 — dynamic scenario time series", true)
}
