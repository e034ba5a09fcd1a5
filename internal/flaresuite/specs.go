// The scenario table: every shipped spec, in the order `flaresuite
// list` prints them. First the report specs, one per table and figure
// in the paper's evaluation (Tables I-II, Figures 4-12) plus the four
// ext-* extensions; each body builds its Report, attaches it (<id>.txt
// / <id>.csv, the results/ format) and asserts its acceptance clauses.
// Their declared axes document each artefact's primary point and make
// it filterable; the report itself performs its own sweep. Then the
// matrix-native specs (specs_matrix.go), which exist only as axis
// points.
package flaresuite

import "strings"

// Scenarios returns the shipped specs in paper order: the 15 report
// specs, then flash-crowd, het-ladders and churn-soak. Expand validates
// them; each call returns a fresh slice the caller may reorder or trim.
func Scenarios() []ScenarioSpec {
	return []ScenarioSpec{
		reportSpec("table1", "Table I — static testbed summary (FESTIVE/GOOGLE/FLARE)",
			Axes{Ladder: LadderTestbed}, table1, nil),
		reportSpec("table2", "Table II — dynamic testbed summary (FESTIVE/GOOGLE/FLARE)",
			Axes{Channel: ChannelCyclic, Ladder: LadderTestbed}, table2, nil),
		reportSpec("fig4", "Figure 4 — static scenario time series",
			Axes{Ladder: LadderTestbed}, fig4, nil),
		reportSpec("fig5", "Figure 5 — dynamic scenario time series",
			Axes{Channel: ChannelCyclic, Ladder: LadderTestbed}, fig5, nil),
		reportSpec("fig6", "Figure 6 — static CDFs over 160 clients (FLARE/AVIS/FESTIVE)",
			Axes{}, fig6, nil),
		reportSpec("fig7", "Figure 7 — mobile CDFs over 160 clients (FLARE/AVIS/FESTIVE)",
			Axes{Channel: ChannelVehicular}, fig7, nil),
		reportSpec("fig8", "Figure 8 — continuous relaxation vs exact FLARE",
			Axes{Ladder: LadderFine}, fig8, nil),
		reportSpec("fig9", "Figure 9 — solver computation-time CDFs (32/64/128 clients)",
			Axes{Ladder: LadderFine}, fig9, nil),
		reportSpec("fig10", "Figure 10 — video/data coexistence CDFs",
			Axes{Channel: ChannelVehicular, Ladder: LadderFine}, fig10, nil),
		reportSpec("fig11", "Figure 11 — alpha sweep of flow throughputs",
			Axes{Channel: ChannelVehicular, Ladder: LadderFine}, fig11, nil),
		reportSpec("fig12", "Figure 12 — delta sweep of bitrate and stability",
			Axes{Channel: ChannelVehicular}, fig12, nil),
		reportSpec("ext-coexist", "4 FLARE + 4 FESTIVE players share one dynamic cell; coordination wins rate and stability (Section V)",
			coexistAxes, extCoexist, func(t *T, rep *Report) {
				t.AssertTrue(len(rep.Tables) > 0 && len(rep.Series) > 0,
					"coexistence report is missing tables or series")
			}),
		reportSpec("ext-abr", "FLARE vs the client-side ABR literature (FESTIVE/GOOGLE/BBA/MPC) in the mobile scenario",
			Axes{Channel: ChannelVehicular, Mix: MixFLARE}, extABR, func(t *T, rep *Report) {
				t.AssertTrue(len(rep.Series) == 5, "expected one CDF per scheme, got %d", len(rep.Series))
			}),
		reportSpec("ext-faults", "control-plane loss sweep 0-50% plus a blackout; degraded FLARE never falls below the client-side baseline",
			Axes{Channel: ChannelPedestrian, Faults: FaultLoss50, Mix: MixFLARE}, extFaults, func(t *T, rep *Report) {
				t.AssertTrue(len(rep.Series) >= 3, "fault sweep series missing, got %d", len(rep.Series))
			}),
		reportSpec("ext-saturation", "offered-load sweep to 3x floor capacity; admission control + downgrade ladder beat naive FLARE on admitted flows",
			saturationAxes, extSaturation, func(t *T, rep *Report) {
				t.AssertTrue(len(rep.Tables) > 0, "saturation report is missing its sweep table")
			}),
		{
			Name:        "flash-crowd",
			Description: "a synchronized arrival burst hits a static cell; residents keep their floors (FLARE) and the whole crowd reaches playback",
			Axes:        Axes{Channel: ChannelStatic, Churn: ChurnFlash, Mix: MixFLARE},
			Matrix:      Matrix{"mix": {MixFLARE, MixFESTIVE}},
			Run:         flashCrowd,
		},
		{
			Name:        "het-ladders",
			Description: "one static FLARE cell swept across heterogeneous encoding ladders (coarse/testbed/fine grain)",
			Axes:        Axes{Channel: ChannelStatic, Mix: MixFLARE, Ladder: LadderSim},
			Matrix:      Matrix{"ladder": {LadderSim, LadderTestbed, LadderFine}},
			Run:         hetLadders,
		},
		{
			Name:        "churn-soak",
			Description: "long-horizon Poisson/Pareto churn at the floor operating point; per-cohort rates stay stationary across thirds of the arrival sequence",
			Axes:        Axes{Channel: ChannelStatic, Churn: ChurnSoak, Mix: MixFLARE, Load: 0.7},
			Matrix:      Matrix{"load": {"0.7", "1.0"}},
			Run:         churnSoak,
		},
	}
}

// reportSpec makes a report-producing spec. Its body builds the report,
// attaches it, fails on any WARNING note — a report emits one whenever
// an acceptance clause (degradation floor, saturation gate) is
// violated — then runs check, when given, for the report's shape.
func reportSpec(name, desc string, axes Axes, build func(*T) *Report, check func(*T, *Report)) ScenarioSpec {
	return ScenarioSpec{Name: name, Description: desc, Axes: axes, Run: func(t *T) {
		rep := t.report(build(t))
		for _, n := range rep.Notes {
			if strings.Contains(n, "WARNING") {
				t.Errorf("acceptance clause violated: %s", n)
			}
		}
		if check != nil {
			check(t, rep)
		}
	}}
}
