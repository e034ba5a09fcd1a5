package core

import (
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/obs"
)

// This file is the controller's saturation machinery: the admission
// predicate (can one more flow hold its floor level inside the BAI's RB
// budget?) and the downgrade-ladder shedding state machine. Both sit
// off the per-TTI hot path — they run at session-open and once-per-BAI
// cadence only — and both are allocation-free.

// budgetRBs is N in Eq. 4: the RB budget the optimiser plans against
// over one BAI, after the capacity margin.
func (c *Controller) budgetRBs() float64 {
	return float64(lte.NumRB) * c.cfg.BAI.Seconds() * lte.TTIsPerSecond * c.cfg.CapacityMargin
}

// floorCostRBs is one flow's Eq. 4 cost at its floor (lowest-ladder)
// level for a given radio cost.
func (c *Controller) floorCostRBs(ladder has.Ladder, rbsPerByte float64) float64 {
	return c.cfg.BAI.Seconds() * ladder.Min() / 8 * rbsPerByte
}

// FloorDemandRBs returns the RBs all registered flows together need to
// hold their floor levels this BAI, using the controller's current
// EWMA radio-cost estimates. Flows are summed in the flow table's
// ascending-ID order so the float result is deterministic.
func (c *Controller) FloorDemandRBs() float64 {
	var sum float64
	for i := range c.rows {
		sum += c.floorCostRBs(c.rows[i].ladder, c.rows[i].rbsPerByte)
	}
	return sum
}

// CanAdmit reports whether a new session with the given ladder passes
// the admission predicate: every already-registered flow plus the
// candidate (priced at the DefaultBytesPerRB prior, since it has no
// radio history yet) must fit its floor level in the RB budget. With
// AdmissionControl disabled it always reports true — the paper's
// unconditional registration.
func (c *Controller) CanAdmit(ladder has.Ladder) bool {
	if !c.cfg.AdmissionControl {
		return true
	}
	cand := c.floorCostRBs(ladder, 1/DefaultBytesPerRB)
	return c.FloorDemandRBs()+cand <= c.budgetRBs()
}

// ShedLevel returns the current downgrade-ladder depth: how many steps
// are shaved off every flow's ceiling (0 = no shedding).
func (c *Controller) ShedLevel() int { return c.shed }

// shedCap folds the downgrade ladder into a flow's effective bitrate
// cap: with shed steps active, the flow's ceiling is its ladder top
// minus shed (floored at level 0), combined with the client's own cap.
// With the ladder disabled or idle this is exactly effectiveMaxBps, so
// the default path is byte-identical to the pre-ladder controller.
func (c *Controller) shedCap(f *flowRow) float64 {
	eff := f.effectiveMaxBps()
	if !c.cfg.DowngradeLadder || c.shed == 0 {
		return eff
	}
	capLevel := f.ladder.Len() - 1 - c.shed
	if capLevel < 0 {
		capLevel = 0
	}
	capBps := f.ladder.Rate(capLevel)
	if eff == 0 || eff > capBps {
		return capBps
	}
	return eff
}

// updateShed advances the downgrade-ladder state machine after a solve.
// Overload (an infeasible instance, or a video share above the high
// watermark) takes one shed step immediately; release requires
// shedHoldBAIs consecutive BAIs below the low watermark and then gives
// back one step at a time — strictly monotone per BAI, with hysteresis.
func (c *Controller) updateShed(sol Solution, maxShed int) {
	overloaded := !sol.Feasible || sol.VideoShare > shedHighShare
	switch {
	case overloaded:
		c.calmStreak = 0
		if c.shed < maxShed {
			c.shed++
			c.rec.Emit(obs.Downgrade(c.cellID, c.baiSeq, int32(c.shed), sol.VideoShare))
		}
	case c.shed > 0 && sol.VideoShare < shedLowShare:
		c.calmStreak++
		if c.calmStreak >= shedHoldBAIs {
			c.shed--
			c.calmStreak = 0
			c.rec.Emit(obs.Restore(c.cellID, c.baiSeq, int32(c.shed), sol.VideoShare))
		}
	default:
		c.calmStreak = 0
	}
}
