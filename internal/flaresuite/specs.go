// The report specs: one per table and figure in the paper's evaluation
// (Tables I-II, Figures 4-12) plus the four ext-* extensions. Each body
// builds its Report, attaches it (<id>.txt / <id>.csv, the results/
// format) and asserts its acceptance clauses. The declared axes
// document each artefact's primary point and make it filterable; the
// report itself performs its own sweep.
package flaresuite

import "strings"

// reportSpec is one report-producing spec: build renders the artefact,
// check (optional) asserts its shape beyond the WARNING gate.
type reportSpec struct {
	id, desc string
	axes     Axes
	build    func(*T) *Report
	check    func(*T, *Report)
}

// reports lists the report specs in registration (paper) order.
var reports = []reportSpec{
	{id: "table1", desc: "Table I — static testbed summary (FESTIVE/GOOGLE/FLARE)",
		axes: Axes{Ladder: LadderTestbed}, build: table1},
	{id: "table2", desc: "Table II — dynamic testbed summary (FESTIVE/GOOGLE/FLARE)",
		axes: Axes{Channel: ChannelCyclic, Ladder: LadderTestbed}, build: table2},
	{id: "fig4", desc: "Figure 4 — static scenario time series",
		axes: Axes{Ladder: LadderTestbed}, build: fig4},
	{id: "fig5", desc: "Figure 5 — dynamic scenario time series",
		axes: Axes{Channel: ChannelCyclic, Ladder: LadderTestbed}, build: fig5},
	{id: "fig6", desc: "Figure 6 — static CDFs over 160 clients (FLARE/AVIS/FESTIVE)",
		build: fig6},
	{id: "fig7", desc: "Figure 7 — mobile CDFs over 160 clients (FLARE/AVIS/FESTIVE)",
		axes: Axes{Channel: ChannelVehicular}, build: fig7},
	{id: "fig8", desc: "Figure 8 — continuous relaxation vs exact FLARE",
		axes: Axes{Ladder: LadderFine}, build: fig8},
	{id: "fig9", desc: "Figure 9 — solver computation-time CDFs (32/64/128 clients)",
		axes: Axes{Ladder: LadderFine}, build: fig9},
	{id: "fig10", desc: "Figure 10 — video/data coexistence CDFs",
		axes: Axes{Channel: ChannelVehicular, Ladder: LadderFine}, build: fig10},
	{id: "fig11", desc: "Figure 11 — alpha sweep of flow throughputs",
		axes: Axes{Channel: ChannelVehicular, Ladder: LadderFine}, build: fig11},
	{id: "fig12", desc: "Figure 12 — delta sweep of bitrate and stability",
		axes: Axes{Channel: ChannelVehicular}, build: fig12},
	{id: "ext-coexist", desc: "4 FLARE + 4 FESTIVE players share one dynamic cell; coordination wins rate and stability (Section V)",
		axes: coexistAxes, build: extCoexist,
		check: func(t *T, rep *Report) {
			t.AssertTrue(len(rep.Tables) > 0 && len(rep.Series) > 0,
				"coexistence report is missing tables or series")
		}},
	{id: "ext-abr", desc: "FLARE vs the client-side ABR literature (FESTIVE/GOOGLE/BBA/MPC) in the mobile scenario",
		axes: Axes{Channel: ChannelVehicular, Mix: MixFLARE}, build: extABR,
		check: func(t *T, rep *Report) {
			t.AssertTrue(len(rep.Series) == 5, "expected one CDF per scheme, got %d", len(rep.Series))
		}},
	{id: "ext-faults", desc: "control-plane loss sweep 0-50% plus a blackout; degraded FLARE never falls below the client-side baseline",
		axes: Axes{Channel: ChannelPedestrian, Faults: FaultLoss50, Mix: MixFLARE}, build: extFaults,
		check: func(t *T, rep *Report) {
			t.AssertTrue(len(rep.Series) >= 3, "fault sweep series missing, got %d", len(rep.Series))
		}},
	{id: "ext-saturation", desc: "offered-load sweep to 3x floor capacity; admission control + downgrade ladder beat naive FLARE on admitted flows",
		axes: saturationAxes, build: extSaturation,
		check: func(t *T, rep *Report) {
			t.AssertTrue(len(rep.Tables) > 0, "saturation report is missing its sweep table")
		}},
}

// assertNoWarnings fails the scenario on any WARNING note — a report
// emits one whenever an acceptance clause (degradation floor,
// saturation gate) is violated.
func assertNoWarnings(t *T, rep *Report) {
	for _, n := range rep.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("acceptance clause violated: %s", n)
		}
	}
}

func init() {
	for _, r := range reports {
		Register(ScenarioSpec{
			Name:        r.id,
			Description: r.desc,
			Axes:        r.axes,
			Run: func(t *T) {
				rep := t.report(r.build(t))
				assertNoWarnings(t, rep)
				if r.check != nil {
					r.check(t, rep)
				}
			},
		})
	}
}
