package core

import (
	"math"
	"testing"

	"github.com/flare-sim/flare/internal/has"
)

// FuzzMCKP throws heterogeneous-history instances at the exact DP and
// checks the two contracts everything downstream leans on:
//
//   - Eq. 4: a feasible solution never spends more RBs than the cell
//     has (the DP rounds costs UP into bins, so discretisation can only
//     be conservative), and
//   - the one-level-up stability rule: no flow is placed more than one
//     level above its previous assignment (fresh flows excepted).
//
// Because rounded-up costs shrink the feasible set, the exhaustive
// BruteForce optimum over the exact costs bounds the DP objective from
// above; that cross-check runs on every instance (n <= 4 on the
// 6-level sim ladder keeps it cheap).
//
// Each input is solved twice — cold, on a scratch set of its own, and
// through the shared freelist right after a larger problem of a
// different shape has been through it — and the two solutions must be
// identical: shared scratch carries nothing from one solve to the next.
// The cold solution must also equal, to the bit, what the full-table DP
// (mckp_ref_test.go) makes of the same instance: the band the production
// sweep confines itself to leaves out no cell that matters.
func FuzzMCKP(f *testing.F) {
	f.Add(uint8(2), uint16(0x1b), int64(500_000), 10.0, 1.0, false, 0.0)
	f.Add(uint8(4), uint16(0xffff), int64(100), 0.25, 0.0, true, 0.0)
	f.Add(uint8(1), uint16(0), int64(5_000_000), 120.0, 4.0, false, 1.1e6)
	f.Add(uint8(3), uint16(0x0421), int64(40_000), 2.0, 0.5, true, 450_000.0)
	polluter := shapedProblem(16, true, 9, 0.7, 2e6)
	f.Fuzz(func(t *testing.T, nRaw uint8, prevBits uint16, totalRBs int64, bytesPerRB, alpha float64, fine bool, capBps float64) {
		n := int(nRaw)%4 + 1
		if totalRBs <= 0 {
			totalRBs = -totalRBs%5_000_000 + 1
		} else {
			totalRBs = totalRBs%5_000_000 + 1
		}
		if bytesPerRB <= 0.01 || bytesPerRB > 1e6 || math.IsNaN(bytesPerRB) {
			bytesPerRB = 10
		}
		if alpha < 0 || alpha > 100 || math.IsNaN(alpha) {
			alpha = 1
		}
		p := testProblem(n, -1, int(nRaw)%3, alpha, bytesPerRB)
		p.TotalRBs = float64(totalRBs)
		if fine {
			// The paper's dense 12-level ladder instead of the 6-level
			// sim ladder: more levels, tighter spacing.
			for u := range p.Flows {
				p.Flows[u].Ladder = has.FineLadder()
			}
		}
		if capBps >= 100_000 && capBps <= 10e6 && !math.IsNaN(capBps) {
			// A Section II-B client preference cap on the last flow.
			p.Flows[n-1].MaxBps = capBps
		}
		// Heterogeneous histories: 4 bits per flow pick PrevLevel in
		// [-1, Ladder.Len()-1].
		for u := range p.Flows {
			span := p.Flows[u].Ladder.Len() + 1
			p.Flows[u].PrevLevel = int(prevBits>>(4*u)&0xf)%span - 1
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("constructed instance invalid: %v", err)
		}

		solver := NewExactSolver()
		sol := requireFullTableEqual(t, "cold solve", p, solver.Bins)
		if _, err := solver.Solve(polluter); err != nil {
			t.Fatal(err)
		}
		warm, err := solver.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSolution(warm, sol) {
			t.Fatalf("after a polluting solve: %+v, cold: %+v", warm, sol)
		}
		if len(sol.Levels) != n {
			t.Fatalf("%d levels for %d flows", len(sol.Levels), n)
		}
		var spent float64
		for u, l := range sol.Levels {
			fl := &p.Flows[u]
			if l < 0 || l >= fl.Ladder.Len() {
				t.Fatalf("flow %d: level %d outside ladder", u, l)
			}
			if fl.PrevLevel >= 0 && l > fl.PrevLevel+1 {
				t.Fatalf("flow %d: jumped %d -> %d (one-level-up rule)", u, fl.PrevLevel, l)
			}
			if fl.MaxBps > 0 && l > 0 && fl.Ladder.Rate(l) > fl.MaxBps {
				t.Fatalf("flow %d: rate %v exceeds preference cap %v", u, fl.Ladder.Rate(l), fl.MaxBps)
			}
			spent += p.CostRBs(u, fl.Ladder.Rate(l))
		}
		if sol.Feasible {
			if spent > p.TotalRBs*(1+1e-9) {
				t.Fatalf("Eq. 4 violated: %v RBs spent of %v", spent, p.TotalRBs)
			}
			if sol.VideoShare > 1+1e-9 {
				t.Fatalf("video share %v > 1 on feasible solution", sol.VideoShare)
			}
		}

		// Exhaustive upper bound over the exact costs.
		brute, err := BruteForce(p)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Feasible && brute.Feasible && sol.Objective > brute.Objective+1e-9 {
			t.Fatalf("DP objective %v beats exhaustive optimum %v", sol.Objective, brute.Objective)
		}
	})
}
