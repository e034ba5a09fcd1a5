package flaresuite

import (
	"fmt"

	"github.com/flare-sim/flare/internal/cellsim"
	"github.com/flare-sim/flare/internal/metrics"
)

// extSatLoads sweeps the offered load as a multiple of the cell's
// floor-carrying capacity (the number of sessions the RB budget can hold
// at the ladder's lowest encoding). Past 1.0 the MCKP is structurally
// infeasible: no assignment keeps every flow at its floor.
var extSatLoads = []float64{0.5, 1.0, 2.0, 3.0}

// saturationAxes is the ext-saturation cell: the steady-churn profile
// at the Table I operating point (iTbs 2, ~4.4 Mbit/s at 50 RBs), so
// the floor capacity is a small, quickly exceeded number of sessions.
// Each sweep point sets Load.
var saturationAxes = Axes{Channel: ChannelStatic, Churn: ChurnSteady, Mix: MixFLARE, Ladder: LadderTestbed, Load: 3}

// saturationConfig builds one sweep point: the saturation cell fed by
// churn at `load` times its floor-carrying capacity. The robust arm
// turns on the admission controller and the downgrade ladder; the naive
// arm is plain FLARE admitting everyone.
func saturationConfig(t *T, load float64, robust bool) cellsim.Config {
	a := saturationAxes
	a.Load = load
	cfg := t.build(a)
	if robust {
		cfg.Flare.AdmissionControl = true
		cfg.Flare.DowngradeLadder = true
	}
	return cfg
}

// extSaturation measures saturation-grade robustness: a churn-driven
// cell is pushed past its floor-carrying capacity and plain FLARE
// (admit everyone, split the shortfall) is compared against FLARE with
// admission control plus the downgrade ladder (refuse what cannot be
// floored, shed ceilings under pressure). The claim under test: at >=2x
// overload the robust arm keeps its admitted flows stall-free and
// delivers strictly higher QoE among them than the naive arm does among
// its (universally admitted) flows.
func extSaturation(t *T) *Report {
	rep := &Report{
		ID:    "ext-saturation",
		Title: "Extension — saturation: admission control and downgrade ladder under churn",
	}

	tbl := metrics.NewTable("FLARE under offered-load sweep (x floor capacity)",
		"admitted/total", "QoE adm", "stall s adm", "stalled flows", "rejects")
	var naiveQoE, robustQoE, admittedShare, naiveStall, robustStall []metrics.Point

	for _, load := range extSatLoads {
		naive := summarizeSatRuns(t.runs(saturationConfig(t, load, false)))
		robust := summarizeSatRuns(t.runs(saturationConfig(t, load, true)))
		tbl.AddRow(fmt.Sprintf("naive %.1fx", load), naive.cells()...)
		tbl.AddRow(fmt.Sprintf("robust %.1fx", load), robust.cells()...)

		naiveQoE = append(naiveQoE, metrics.Point{X: load, Y: naive.qoe})
		robustQoE = append(robustQoE, metrics.Point{X: load, Y: robust.qoe})
		naiveStall = append(naiveStall, metrics.Point{X: load, Y: naive.stallSec})
		robustStall = append(robustStall, metrics.Point{X: load, Y: robust.stallSec})
		admittedShare = append(admittedShare, metrics.Point{X: load, Y: robust.admittedFrac()})

		rep.Notef("load %.1fx: naive QoE %.0f (%.1f stall s/flow), robust QoE %.0f (%.1f stall s/flow, %d/%d admitted)",
			load, naive.qoe, naive.stallSec, robust.qoe, robust.stallSec, robust.admitted, robust.flows)
		if load >= 2 {
			// The acceptance gate for the saturation story.
			if robust.stallSeconds > 0 {
				rep.Notef("WARNING: robust FLARE at %.1fx stalled admitted flows for %.1f s total — guarantees should prevent any",
					load, robust.stallSeconds)
			}
			if robust.qoe <= naive.qoe {
				rep.Notef("WARNING: robust FLARE at %.1fx did not beat naive on admitted-flow QoE (%.0f <= %.0f)",
					load, robust.qoe, naive.qoe)
			}
		}
	}

	rep.Tables = append(rep.Tables, tbl)
	rep.Series = append(rep.Series,
		metrics.Series{Name: "flare-naive/qoe_vs_load", Points: naiveQoE},
		metrics.Series{Name: "flare-robust/qoe_vs_load", Points: robustQoE},
		metrics.Series{Name: "flare-naive/stall_vs_load", Points: naiveStall},
		metrics.Series{Name: "flare-robust/stall_vs_load", Points: robustStall},
		metrics.Series{Name: "flare-robust/admitted_share_vs_load", Points: admittedShare},
	)
	return rep
}

// satRow aggregates one sweep point over the admitted population only —
// a refused flow plays out on its local ABR and its (poor) experience
// is the admission policy working, not failing.
type satRow struct {
	flows        int     // sessions generated by churn, across runs
	admitted     int     // sessions the control plane admitted
	qoe          float64 // mean QoE among admitted flows
	stallSec     float64 // mean post-admission stall seconds per admitted flow
	stallSeconds float64 // total post-admission stall seconds, admitted flows
	stallCount   int     // admitted flows with any post-admission stall
	rejects      int     // open attempts refused (retries included)
}

func (r satRow) admittedFrac() float64 {
	if r.flows == 0 {
		return 0
	}
	return float64(r.admitted) / float64(r.flows)
}

func (r satRow) cells() []string {
	return []string{
		fmt.Sprintf("%d/%d", r.admitted, r.flows),
		fmt.Sprintf("%.0f", r.qoe),
		fmt.Sprintf("%.1f", r.stallSec),
		fmt.Sprintf("%d", r.stallCount),
		fmt.Sprintf("%d", r.rejects),
	}
}

func summarizeSatRuns(results []*cellsim.Result) satRow {
	var row satRow
	var qoes, stalls []float64
	for _, r := range results {
		row.rejects += r.ControlPlane.AdmissionRejects
		for _, c := range r.Clients {
			row.flows++
			if !c.Admitted {
				continue
			}
			row.admitted++
			qoes = append(qoes, c.QoEScore)
			// Post-admission stalls only: rebuffering a flow accrued
			// while waiting on its local ABR (and the settling window
			// right after a mid-stream admission) is starvation the
			// admission policy chose, not a broken guarantee.
			post := c.StallSeconds - c.StallSecondsPreAdmit
			if post < 0 {
				post = 0
			}
			stalls = append(stalls, post)
			row.stallSeconds += post
			if post > 0 {
				row.stallCount++
			}
		}
	}
	row.qoe = metrics.Mean(qoes)
	row.stallSec = metrics.Mean(stalls)
	return row
}
