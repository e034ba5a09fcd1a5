// Package core implements the paper's primary contribution: the FLARE
// bitrate-assignment optimisation (Eq. 2-4), its exact discrete solver
// (a multiple-choice-knapsack dynamic program), the continuous relaxation
// of Proposition 1 (KKT water-filling nested in a golden-section search),
// the Algorithm 1 stability gate, and the per-cell controller that runs
// once per bitrate assignment interval (BAI).
package core

import (
	"fmt"
	"math"

	"github.com/flare-sim/flare/internal/has"
)

// VideoFlow is the per-flow optimisation input: the flow's ladder, its
// utility parameters, the previous assignment level, and the radio cost
// observed at the eNodeB during the previous BAI.
type VideoFlow struct {
	// ID identifies the flow (bearer ID).
	ID int
	// Ladder is the flow's available bitrates r_u, ascending.
	Ladder has.Ladder
	// Beta is the importance of video to this client (Table IV: 10).
	Beta float64
	// ThetaBps is the screen-size parameter (Table IV: 0.2 Mbps).
	ThetaBps float64
	// PrevLevel is L_u^{i-1}, the previously assigned ladder index, or
	// -1 for a flow with no assignment yet.
	PrevLevel int
	// RBsPerByte is c_u = n_u^{i-1} / b_u^{i-1}: the resource blocks
	// spent per transmitted byte in the previous BAI.
	RBsPerByte float64
	// MaxBps is an optional client-side preference cap (0 = none) —
	// Section II-B's "the client can specify an upper bound on its
	// bitrate".
	MaxBps float64
}

// MaxLevel returns the highest level this flow may be assigned this BAI:
// the Eq. 4 stability constraint (at most one level above PrevLevel),
// clipped by the client preference cap. The stability constraint holds
// "for i > 1" only — a flow with no assignment history may be placed
// anywhere on its ladder in its first BAI.
func (v *VideoFlow) MaxLevel() int {
	maxL := v.PrevLevel + 1
	if v.PrevLevel < 0 || maxL >= v.Ladder.Len() {
		maxL = v.Ladder.Len() - 1
	}
	if v.MaxBps > 0 {
		if capL := v.Ladder.HighestAtMost(v.MaxBps); capL < maxL {
			maxL = capL
		}
	}
	return maxL
}

// Utility returns beta * (1 - theta/R) for the given ladder level.
func (v *VideoFlow) Utility(level int) float64 {
	r := v.Ladder.Rate(level)
	return v.Beta * (1 - v.ThetaBps/r)
}

// Problem is one BAI's optimisation instance (Eq. 2-4).
type Problem struct {
	// Flows are the video flows in the cell.
	Flows []VideoFlow
	// Objective is the per-flow utility model; nil means the paper's
	// Eq. 2 utility (DefaultObjective). Both solvers read utilities
	// only through UtilityAt/objective, so swapping the objective
	// never touches the DP or water-filling mechanics.
	Objective Objective
	// NumDataFlows is n, the number of data flows (from the PCRF).
	NumDataFlows int
	// Alpha is the data-vs-video priority knob.
	Alpha float64
	// TotalRBs is N, the resource blocks available over the BAI.
	TotalRBs float64
	// BAISeconds is B, the BAI length in seconds.
	BAISeconds float64
	// StickinessBonus is a small utility bonus for keeping a flow at
	// its previous level. In a saturated cell, flows with near-equal
	// utilities can swap levels on tiny radio-cost fluctuations with
	// almost no objective gain; the bonus suppresses that churn while
	// still permitting any genuinely profitable reassignment — the
	// optimisation-side half of the paper's "stateful approach to rate
	// selection". 0 or negative disables it.
	StickinessBonus float64
}

// Validate checks the instance for structural errors.
func (p *Problem) Validate() error {
	if p.TotalRBs <= 0 {
		return fmt.Errorf("core: TotalRBs must be positive, got %v", p.TotalRBs)
	}
	if p.BAISeconds <= 0 {
		return fmt.Errorf("core: BAISeconds must be positive, got %v", p.BAISeconds)
	}
	if p.NumDataFlows < 0 {
		return fmt.Errorf("core: negative data-flow count %d", p.NumDataFlows)
	}
	if p.Alpha < 0 {
		return fmt.Errorf("core: negative alpha %v", p.Alpha)
	}
	for i := range p.Flows {
		f := &p.Flows[i]
		if err := f.Ladder.Validate(); err != nil {
			return fmt.Errorf("core: flow %d: %w", f.ID, err)
		}
		if len(f.Ladder) > MaxLevels {
			return fmt.Errorf("core: flow %d: ladder of %d levels, more than %d", f.ID, len(f.Ladder), MaxLevels)
		}
		if f.Beta <= 0 {
			return fmt.Errorf("core: flow %d: beta must be positive, got %v", f.ID, f.Beta)
		}
		if f.ThetaBps <= 0 {
			return fmt.Errorf("core: flow %d: theta must be positive, got %v", f.ID, f.ThetaBps)
		}
		if f.RBsPerByte <= 0 {
			return fmt.Errorf("core: flow %d: RBsPerByte must be positive, got %v", f.ID, f.RBsPerByte)
		}
		if f.PrevLevel < -1 || f.PrevLevel >= f.Ladder.Len() {
			return fmt.Errorf("core: flow %d: PrevLevel %d out of range", f.ID, f.PrevLevel)
		}
	}
	return nil
}

// CostRBs returns the RBs flow u consumes over the BAI at rate bps:
// (B * R / 8 bytes) * c_u, the left side of Eq. 4.
func (p *Problem) CostRBs(u int, bps float64) float64 {
	return p.BAISeconds * bps / 8 * p.Flows[u].RBsPerByte
}

// DataTerm returns n * alpha * log(1 - r) for a video RB share r. With
// no data flows the term is 0; r >= 1 yields -Inf.
func (p *Problem) DataTerm(r float64) float64 {
	if p.NumDataFlows == 0 || p.Alpha == 0 {
		return 0
	}
	if r >= 1 {
		return math.Inf(-1)
	}
	if r < 0 {
		r = 0
	}
	return float64(p.NumDataFlows) * p.Alpha * math.Log(1-r)
}

// objective returns the utility model in effect (Eq. 2 by default).
func (p *Problem) objective() Objective {
	if p.Objective != nil {
		return p.Objective
	}
	return DefaultObjective
}

// UtilityAt returns flow u's utility at the given level, including the
// keep-previous-level stickiness bonus.
func (p *Problem) UtilityAt(u, level int) float64 {
	f := &p.Flows[u]
	util := p.objective().Utility(f.Beta, f.ThetaBps, f.Ladder.Rate(level))
	if p.StickinessBonus > 0 && level == f.PrevLevel {
		util += p.StickinessBonus
	}
	return util
}

// ObjectiveAt evaluates Eq. 2 for a full level assignment, taking r as
// exactly the RB share the levels consume (using more helps nothing).
// It returns the objective and the RB share; infeasible assignments
// (share > 1) return -Inf.
func (p *Problem) ObjectiveAt(levels []int) (obj, share float64) {
	var used, util float64
	for u := range p.Flows {
		f := &p.Flows[u]
		used += p.CostRBs(u, f.Ladder.Rate(levels[u]))
		util += p.UtilityAt(u, levels[u])
	}
	share = used / p.TotalRBs
	if share > 1 {
		return math.Inf(-1), share
	}
	return util + p.DataTerm(share), share
}

// Solution is the optimiser output for one BAI.
type Solution struct {
	// Levels is the assigned ladder index per flow (parallel to Flows).
	Levels []int
	// RatesBps is the assigned bitrate per flow.
	RatesBps []float64
	// VideoShare is r*, the RB fraction the video levels consume.
	VideoShare float64
	// Objective is the Eq. 2 value achieved.
	Objective float64
	// Feasible is false when even the all-lowest assignment exceeds the
	// capacity constraint; Levels then hold the all-lowest fallback.
	Feasible bool
}

// solutionFor packages a level assignment into a Solution of its own.
func (p *Problem) solutionFor(levels []int, feasible bool) Solution {
	var sol Solution
	p.fill(&sol, levels, feasible)
	return sol
}

// fill makes sol the Solution for levels (which it keeps, parallel to
// p.Flows): rates — into sol.RatesBps's own storage when that is large
// enough, else into storage sized for p.Flows's capacity — RB share and
// objective.
func (p *Problem) fill(sol *Solution, levels []int, feasible bool) {
	if cap(sol.RatesBps) < len(levels) {
		sol.RatesBps = make([]float64, cap(p.Flows))
	}
	sol.Levels, sol.RatesBps = levels, sol.RatesBps[:len(levels)]
	for u, l := range levels {
		sol.RatesBps[u] = p.Flows[u].Ladder.Rate(l)
	}
	sol.Objective, sol.VideoShare = p.ObjectiveAt(levels)
	sol.Feasible = feasible
}

// reset empties sol, keeping its storage for the next fill.
func (sol *Solution) reset() {
	*sol = Solution{Levels: sol.Levels[:0], RatesBps: sol.RatesBps[:0]}
}

// lowestLevels returns the all-minimum assignment.
func (p *Problem) lowestLevels() []int {
	return make([]int, len(p.Flows))
}
