package core

import (
	"fmt"
	"math"
	"testing"

	"github.com/flare-sim/flare/internal/sim"
)

// solveFullTable is the exact solver as it was before the DP was
// restricted to each row's band (mckp.go), kept verbatim as the oracle
// the banded sweep is compared with: every row over all bins+1 cells,
// the choice table n x (bins+1), and an infeasible cell found only by
// running the whole DP to an empty final row.
func (s *mckpScratch) solveFullTable(p *Problem, bins int, logs []float64, sol *Solution) error {
	n := len(p.Flows)
	if cap(sol.Levels) < n {
		sol.Levels = make([]int, 0, n)
	}
	levels := sol.Levels[:n]
	binRBs := p.TotalRBs / float64(bins)
	// cost in bins (rounded up) per flow per level. The per-flow slices
	// are carved out of grow-only scratch buffers; every entry is
	// overwritten before use, so reuse cannot leak state between solves.
	levelsTotal := 0
	for u := range p.Flows {
		levelsTotal += p.Flows[u].MaxLevel() + 1
	}
	if cap(s.costsB) < levelsTotal {
		s.costsB = make([]int, levelsTotal)
		s.utilsB = make([]float64, levelsTotal)
	}
	if cap(s.costs) < n {
		s.costs = make([][]int, n)
		s.utils = make([][]float64, n)
	}
	costs := s.costs[:n]
	utils := s.utils[:n]
	off := 0
	feasible := true
	for u := range p.Flows {
		f := &p.Flows[u]
		maxL := f.MaxLevel()
		costs[u] = s.costsB[off : off+maxL+1 : off+maxL+1]
		utils[u] = s.utilsB[off : off+maxL+1 : off+maxL+1]
		off += maxL + 1
		for l := 0; l <= maxL; l++ {
			c := p.CostRBs(u, f.Ladder.Rate(l))
			costs[u][l] = int(math.Ceil(c / binRBs))
			utils[u][l] = p.UtilityAt(u, l)
		}
		if costs[u][0] > bins {
			feasible = false
		}
	}
	if !feasible {
		// Even the lowest levels overflow the cell; hand out the
		// minimum and let the scheduler degrade gracefully.
		clear(levels)
		p.fill(sol, levels, false)
		return nil
	}

	negInf := math.Inf(-1)
	// dp[j]: max total utility using exactly <= j bins, with choice[u][j]
	// recording flow u's level in the best assignment reaching j.
	if cap(s.dp) < bins+1 {
		s.dp = make([]float64, bins+1)
		s.nxt = make([]float64, bins+1)
	}
	if cap(s.choice) < n*(bins+1) {
		s.choice = make([]int8, n*(bins+1))
	}
	dp, next := s.dp[:bins+1], s.nxt[:bins+1]
	choice := s.choice[:n*(bins+1)]
	for j := range dp {
		dp[j] = 0
	}
	// sat is the saturation bound after the flows processed so far: the
	// sum of their max-level costs, capped at bins. For j >= sat every
	// level's lookback dp[j-c] reads the (inductively constant) saturated
	// region of the previous row, so value and first-wins argmax are the
	// same for all such j — the tail is filled by copying the entry at
	// the bound instead of recomputing it, bit-identically.
	sat := 0
	for u := 0; u < n; u++ {
		cu, uu := costs[u], utils[u]
		chu := choice[u*(bins+1) : (u+1)*(bins+1)]
		sat += cu[len(cu)-1] // costs ascend in l, so the last is the max
		if sat > bins {
			sat = bins
		}
		bound := sat
		// Level-outer sweep: for each capacity j the argmax over levels is
		// taken in ascending l with strict >, which visits exactly the
		// candidates of the natural per-j scan in the same order — ties
		// resolve to the same level, so the result is bit-identical to the
		// j-outer formulation while keeping the inner loop branch-light
		// and stride-1.
		//
		// Level 0 is peeled: below its cost the row is unreachable, at or
		// above it the level-0 candidate always replaces the -inf
		// initialiser, so both regions are written directly instead of
		// init-then-compare. (Where dp itself is -inf the peel records
		// choice 0 instead of -1; such cells carry value -inf and can
		// never lie on the finite backtrack path, so the solution is
		// unchanged.)
		c0, u0 := cu[0], uu[0]
		for j := 0; j < c0; j++ {
			next[j] = negInf
			chu[j] = -1
		}
		{
			dpc := dp[: bound+1-c0 : bound+1-c0]
			nx := next[c0 : bound+1 : bound+1]
			ch := chu[c0 : bound+1 : bound+1]
			for j, dv := range dpc {
				nx[j] = dv + u0
				ch[j] = 0
			}
		}
		for l := 1; l < len(cu); l++ {
			c := cu[l]
			if c > bound {
				break // costs are ascending in l
			}
			ul := uu[l]
			l8 := int8(l)
			dpc := dp[: bound+1-c : bound+1-c]
			nx := next[c : bound+1 : bound+1]
			ch := chu[c : bound+1 : bound+1]
			for j, dv := range dpc {
				if v := dv + ul; v > nx[j] {
					nx[j] = v
					ch[j] = l8
				}
			}
		}
		// Saturated tail: identical to the entry at the bound.
		if bound < bins {
			vn, vc := next[bound], chu[bound]
			for j := bound + 1; j <= bins; j++ {
				next[j] = vn
				chu[j] = vc
			}
		}
		dp, next = next, dp
	}

	// Pick the bucket count that maximises utility + data term. The term
	// is DataTerm(j/bins) to the bit — the same left-to-right product
	// float64(n)*alpha*log(1-r), the log read from the shared curve — and
	// the conversion keeps it rounded before the add (no fused multiply).
	dataK := float64(p.NumDataFlows) * p.Alpha // 0 iff DataTerm is identically 0
	bestObj := negInf
	bestJ := -1
	for j := 0; j <= bins; j++ {
		if dp[j] == negInf {
			continue
		}
		obj := dp[j]
		if dataK != 0 {
			obj += float64(dataK * logs[j])
		}
		if obj > bestObj {
			bestObj = obj
			bestJ = j
		}
	}
	if bestJ < 0 {
		clear(levels)
		p.fill(sol, levels, false)
		return nil
	}

	// Backtrack the choices.
	j := bestJ
	for u := n - 1; u >= 0; u-- {
		l := choice[u*(bins+1)+j]
		if l < 0 {
			return fmt.Errorf("core: DP backtrack failed at flow %d", u)
		}
		levels[u] = int(l)
		j -= costs[u][l]
	}
	p.fill(sol, levels, true)
	return nil
}

// fullTableSolve runs the oracle on a scratch set of its own.
func fullTableSolve(t testing.TB, p *Problem, bins int) Solution {
	t.Helper()
	sc, logs := new(scratchPool).borrow(bins)
	var sol Solution
	if err := sc.solveFullTable(p, bins, logs, &sol); err != nil {
		t.Fatal(err)
	}
	return sol
}

// requireFullTableEqual solves p banded and full-table and requires the
// two Solutions to be equal to the bit.
func requireFullTableEqual(t testing.TB, name string, p *Problem, bins int) Solution {
	t.Helper()
	got, want := coldSolve(t, p, bins), fullTableSolve(t, p, bins)
	if !sameSolution(got, want) {
		t.Fatalf("%s: banded DP %+v, full-table DP %+v", name, got, want)
	}
	return got
}

// lowestCostBins is the all-lowest assignment's cost in bins, as solve
// rounds it.
func lowestCostBins(p *Problem, bins int) int {
	lo := 0
	for u := range p.Flows {
		c := p.CostRBs(u, p.Flows[u].Ladder.Rate(0))
		lo += int(math.Ceil(c / (p.TotalRBs / float64(bins))))
	}
	return lo
}

// TestBandedDPMatchesFullTable holds the banded sweep to the full-table
// DP on seeded instances built around where the band matters: the
// all-lowest cost just below, at and above the capacity (the band one
// cell wide, then empty), identical flows (every candidate ties),
// preference caps, stickiness, and the coarsest and the production
// resolution.
func TestBandedDPMatchesFullTable(t *testing.T) {
	for _, bins := range []int{10, 4000} {
		for _, n := range []int{1, 8, 24, 128, 200} {
			rng := sim.NewRNG(uint64(bins*1000 + n))
			for variant := 0; variant < 12; variant++ {
				identical := variant%2 == 0
				p := shapedProblem(n, variant%4 >= 2, variant%3, 0.5+rng.Float64()*2, 1)
				for u := range p.Flows {
					f := &p.Flows[u]
					if identical {
						f.RBsPerByte, f.PrevLevel = 0.1, 2
					} else {
						f.RBsPerByte = 1 / (3 + 20*rng.Float64())
					}
					if variant%5 == 1 && u%3 == 0 {
						f.MaxBps = 150_000 + 900_000*rng.Float64()
					}
				}
				if variant >= 6 {
					p.StickinessBonus = 0.05
				}
				// Size the cell off the all-lowest cost: slack multiples of
				// it for a wide band, then the three capacities around
				// lo == bins (found by bisection on TotalRBs, because the
				// bin width moves with it).
				var lowestRBs float64
				for u := range p.Flows {
					lowestRBs += p.CostRBs(u, p.Flows[u].Ladder.Rate(0))
				}
				capacities := []float64{lowestRBs * 6, lowestRBs * 2.5, lowestRBs * 1.2}
				lo, hi := lowestRBs/2, lowestRBs*float64(bins) // lo infeasible, hi feasible
				for i := 0; i < 200 && hi-lo > lowestRBs*1e-12; i++ {
					mid := (lo + hi) / 2
					p.TotalRBs = mid
					if lowestCostBins(p, bins) > bins {
						lo = mid
					} else {
						hi = mid
					}
				}
				capacities = append(capacities, hi, hi*(1+1e-9), lo)
				for i, total := range capacities {
					p.TotalRBs = total
					name := fmt.Sprintf("bins=%d n=%d variant=%d TotalRBs=%v (lowest cost %d bins)",
						bins, n, variant, total, lowestCostBins(p, bins))
					sol := requireFullTableEqual(t, name, p, bins)
					// At 4000 bins the sweep must straddle the edge: room to
					// spare is feasible, one step short is not. (At 10 bins
					// every flow costs a bin or more, so n > 10 never fits.)
					if want := i < 3; bins == 4000 && (i < 3 || i == len(capacities)-1) && sol.Feasible != want {
						t.Fatalf("%s: Feasible = %v", name, sol.Feasible)
					}
				}
			}
		}
	}
}
