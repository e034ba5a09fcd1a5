package flaresuite

import (
	"fmt"

	"github.com/flare-sim/flare/internal/cellsim"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/metrics"
)

// simSchemes are the systems compared in the ns-3 scenarios.
var simSchemes = []cellsim.Scheme{
	cellsim.SchemeFLARE, cellsim.SchemeAVIS, cellsim.SchemeFESTIVE,
}

const cdfPoints = 80

// clientCDFs produces the Figure 6 / Figure 7 CDFs: per-client
// average bitrate and bitrate-change counts pooled across runs.
func clientCDFs(t *T, id, title string, mobile bool) *Report {
	rep := &Report{ID: id, Title: title}
	means := map[cellsim.Scheme]float64{}
	changeMeans := map[cellsim.Scheme]float64{}
	for _, scheme := range simSchemes {
		results := t.runs(SimConfig(scheme, mobile, t.scale))
		rates := pooled(results, (*cellsim.Result).AvgRates)
		changes := pooled(results, (*cellsim.Result).Changes)
		var jains []float64
		for _, r := range results {
			jains = append(jains, r.JainOfTputs())
		}
		rep.Series = append(rep.Series,
			metrics.SeriesFromCDF(fmt.Sprintf("%s/avg_bitrate_bps", scheme), metrics.NewCDF(rates), cdfPoints),
			metrics.SeriesFromCDF(fmt.Sprintf("%s/bitrate_changes", scheme), metrics.NewCDF(changes), cdfPoints),
		)
		means[scheme] = metrics.Mean(rates)
		changeMeans[scheme] = metrics.Mean(changes)
		rep.Notef("%s: mean bitrate %.0f Kbps over %d clients, mean changes %.1f, Jain %.3f",
			scheme, means[scheme]/1000, len(rates), changeMeans[scheme], metrics.Mean(jains))
	}
	flare, avis, fest := means[cellsim.SchemeFLARE], means[cellsim.SchemeAVIS], means[cellsim.SchemeFESTIVE]
	if avis > 0 && fest > 0 {
		rep.Notef("FLARE bitrate vs AVIS %+.0f%%, vs FESTIVE %+.0f%% (paper %s: +%s)",
			100*(flare/avis-1), 100*(flare/fest-1), rep.ID,
			map[bool]string{false: "24%/39%", true: "53%/47%"}[mobile])
	}
	fc, ac, fec := changeMeans[cellsim.SchemeFLARE], changeMeans[cellsim.SchemeAVIS], changeMeans[cellsim.SchemeFESTIVE]
	if ac > 0 && fec > 0 {
		rep.Notef("FLARE changes vs AVIS %+.0f%%, vs FESTIVE %+.0f%% (paper %s: -%s)",
			100*(fc/ac-1), 100*(fc/fec-1), rep.ID,
			map[bool]string{false: "26%/66%", true: "85%/95%"}[mobile])
	}
	return rep
}

// fig6 reproduces Figure 6 (static CDFs).
func fig6(t *T) *Report {
	return clientCDFs(t, "fig6", "Figure 6 — static scenario CDFs", false)
}

// fig7 reproduces Figure 7 (mobile CDFs).
func fig7(t *T) *Report {
	return clientCDFs(t, "fig7", "Figure 7 — mobile scenario CDFs", true)
}

// fig8 reproduces Figure 8: FLARE with the continuous-relaxation
// solver against exact FLARE, on the dense 100..1200 Kbps ladder, for
// both the static and mobile scenarios.
func fig8(t *T) *Report {
	rep := &Report{ID: "fig8", Title: "Figure 8 — continuous bitrate optimisation"}
	for _, mobile := range []bool{false, true} {
		label := map[bool]string{false: "static", true: "mobile"}[mobile]
		var exactMean, relaxMean float64
		var exactChanges, relaxChanges float64
		for _, relaxed := range []bool{false, true} {
			cfg := SimConfig(cellsim.SchemeFLARE, mobile, t.scale)
			cfg.Ladder = has.FineLadder()
			cfg.Flare.UseRelaxation = relaxed
			results := t.runs(cfg)
			rates := pooled(results, (*cellsim.Result).AvgRates)
			changes := pooled(results, (*cellsim.Result).Changes)
			arm := map[bool]string{false: "exact", true: "relaxed"}[relaxed]
			rep.Series = append(rep.Series,
				metrics.SeriesFromCDF(fmt.Sprintf("%s/%s/avg_bitrate_bps", label, arm), metrics.NewCDF(rates), cdfPoints),
				metrics.SeriesFromCDF(fmt.Sprintf("%s/%s/bitrate_changes", label, arm), metrics.NewCDF(changes), cdfPoints),
			)
			if relaxed {
				relaxMean, relaxChanges = metrics.Mean(rates), metrics.Mean(changes)
			} else {
				exactMean, exactChanges = metrics.Mean(rates), metrics.Mean(changes)
			}
		}
		loss := 0.0
		if exactMean > 0 {
			loss = 100 * (1 - relaxMean/exactMean)
		}
		rep.Notef("%s: relaxation bitrate loss %.1f%% (paper: <=15%%); changes exact %.1f vs relaxed %.1f",
			label, loss, exactChanges, relaxChanges)
	}
	return rep
}

// fig9 reproduces Figure 9: CDFs of the per-BAI optimiser wall time
// with 32, 64, and 128 video clients, for both solvers.
func fig9(t *T) *Report {
	rep := &Report{ID: "fig9", Title: "Figure 9 — bitrate-selection computation time"}
	sizes := []int{32, 64, 128}
	for _, relaxed := range []bool{true, false} {
		arm := map[bool]string{false: "exact", true: "relaxed"}[relaxed]
		for _, n := range sizes {
			cfg := SimConfig(cellsim.SchemeFLARE, false, t.scale)
			cfg.NumVideo = n
			cfg.Ladder = has.FineLadder()
			cfg.Flare.UseRelaxation = relaxed
			// One run suffices: every BAI contributes a sample.
			results := t.runSeeded(cfg, 1, 1, "")
			timesMs := make([]float64, 0, len(results[0].SolveTimesSec))
			for _, s := range results[0].SolveTimesSec {
				timesMs = append(timesMs, s*1000)
			}
			cdf := metrics.NewCDF(timesMs)
			rep.Series = append(rep.Series,
				metrics.SeriesFromCDF(fmt.Sprintf("%s/%d_clients/solve_ms", arm, n), cdf, cdfPoints))
			rep.Notef("%s solver, %d clients: median %.3f ms, p99 %.3f ms, max %.3f ms over %d BAIs (segment duration is 10000 ms)",
				arm, n, cdf.Quantile(0.5), cdf.Quantile(0.99), cdf.Max(), cdf.Len())
		}
	}
	return rep
}

// fig10 reproduces Figure 10: 8 video + 8 data clients under FLARE;
// CDFs of per-flow throughput by class and of video bitrate changes.
func fig10(t *T) *Report {
	rep := &Report{ID: "fig10", Title: "Figure 10 — video/data coexistence under FLARE"}
	cfg := SimConfig(cellsim.SchemeFLARE, true, t.scale)
	cfg.NumData = 8
	cfg.Ladder = has.FineLadder()
	results := t.runs(cfg)
	videoTputs := pooled(results, (*cellsim.Result).AvgTputs)
	dataTputs := pooled(results, (*cellsim.Result).DataTputs)
	changes := pooled(results, (*cellsim.Result).Changes)
	rep.Series = append(rep.Series,
		metrics.SeriesFromCDF("video/tput_bps", metrics.NewCDF(videoTputs), cdfPoints),
		metrics.SeriesFromCDF("data/tput_bps", metrics.NewCDF(dataTputs), cdfPoints),
		metrics.SeriesFromCDF("video/bitrate_changes", metrics.NewCDF(changes), cdfPoints),
	)
	rep.Notef("video mean %.0f Kbps, data mean %.0f Kbps, video changes mean %.1f",
		metrics.Mean(videoTputs)/1000, metrics.Mean(dataTputs)/1000, metrics.Mean(changes))
	return rep
}

// fig11 reproduces Figure 11: the alpha sweep trading data against
// video throughput.
func fig11(t *T) *Report {
	rep := &Report{ID: "fig11", Title: "Figure 11 — flow throughputs vs alpha"}
	alphas := []float64{0.25, 0.5, 1, 2, 4}
	var videoMean, videoStd, dataMean, dataStd metrics.Series
	videoMean.Name, videoStd.Name = "video/mean_bps", "video/stdev_bps"
	dataMean.Name, dataStd.Name = "data/mean_bps", "data/stdev_bps"
	for _, alpha := range alphas {
		cfg := SimConfig(cellsim.SchemeFLARE, true, t.scale)
		cfg.NumData = 8
		cfg.Ladder = has.FineLadder()
		cfg.Flare.Alpha = alpha
		results := t.runs(cfg)
		v := pooled(results, (*cellsim.Result).AvgTputs)
		d := pooled(results, (*cellsim.Result).DataTputs)
		videoMean.Points = append(videoMean.Points, metrics.Point{X: alpha, Y: metrics.Mean(v)})
		videoStd.Points = append(videoStd.Points, metrics.Point{X: alpha, Y: metrics.Stdev(v)})
		dataMean.Points = append(dataMean.Points, metrics.Point{X: alpha, Y: metrics.Mean(d)})
		dataStd.Points = append(dataStd.Points, metrics.Point{X: alpha, Y: metrics.Stdev(d)})
		rep.Notef("alpha=%.2f: video %.0f Kbps, data %.0f Kbps", alpha,
			metrics.Mean(v)/1000, metrics.Mean(d)/1000)
	}
	rep.Series = append(rep.Series, videoMean, videoStd, dataMean, dataStd)
	return rep
}

// fig12 reproduces Figure 12: the delta sweep trading average bitrate
// against stability.
func fig12(t *T) *Report {
	rep := &Report{ID: "fig12", Title: "Figure 12 — bitrate and stability vs delta"}
	var rateSeries, changeSeries metrics.Series
	rateSeries.Name, changeSeries.Name = "avg_bitrate_bps", "bitrate_changes"
	// delta=0 is the extra ablation arm: Algorithm 1's streak gate off.
	for delta := 0; delta <= 12; delta++ {
		cfg := SimConfig(cellsim.SchemeFLARE, true, t.scale)
		cfg.Flare.Delta = delta
		results := t.runs(cfg)
		rates := pooled(results, (*cellsim.Result).AvgRates)
		changes := pooled(results, (*cellsim.Result).Changes)
		rateSeries.Points = append(rateSeries.Points, metrics.Point{X: float64(delta), Y: metrics.Mean(rates)})
		changeSeries.Points = append(changeSeries.Points, metrics.Point{X: float64(delta), Y: metrics.Mean(changes)})
		rep.Notef("delta=%d: avg bitrate %.0f Kbps, %.1f changes/client",
			delta, metrics.Mean(rates)/1000, metrics.Mean(changes))
	}
	rep.Series = append(rep.Series, rateSeries, changeSeries)
	return rep
}
