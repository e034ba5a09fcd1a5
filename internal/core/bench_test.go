package core

import "testing"

// BenchmarkSolveRoundRobinCells puts a number on what sharing solver
// scratch buys beyond memory: 280 cells of 8 flows (the plane_small
// shape) solved round-robin, once with a private scratch set per cell —
// the layout the freelist replaced, ~36 MB of tables cycled through
// the cache cold — and once through the shared freelist, where every
// solve lands on the set the previous one just warmed.
func BenchmarkSolveRoundRobinCells(b *testing.B) {
	const cells, flows = 280, 8
	solver := NewExactSolver()
	problems := make([]*Problem, cells)
	for c := range problems {
		problems[c] = shapedProblem(flows, false, c%4, 1, 5e5)
		problems[c].Flows[0].RBsPerByte = 1 / (5 + float64(c%30))
	}
	b.Run("per-cell", func(b *testing.B) {
		_, logs := new(scratchPool).borrow(solver.Bins)
		private := make([]mckpScratch, cells)
		for c := range private { // first solves allocate the tables
			if err := private[c].solve(problems[c], solver.Bins, logs, new(Solution)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := private[i%cells].solve(problems[i%cells], solver.Bins, logs, new(Solution)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := solver.Solve(problems[i%cells]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExactSolverShapes times the exact solve at the shapes the
// ledger's workloads put it through, sized by what decides the DP's
// band (bins - the all-lowest cost, see solve): the 128-session
// fine-ladder cell of plane_dense while Algorithm 1 ramps it up off the
// floor (the floor alone fills 0.8 of the cell) and once settled (0.35),
// the churn cell's 200 registered sessions that barely fit (0.97), and
// the metro and small-cell shapes with room to spare.
func BenchmarkExactSolverShapes(b *testing.B) {
	for _, sh := range []struct {
		name       string
		n          int
		fine       bool
		floorShare float64 // all-lowest cost / TotalRBs
		prevLevel  func(u, rungs int) int
	}{
		{"128x12-ramping", 128, true, 0.8, func(u, _ int) int { return u % 2 }},
		{"128x12-settled", 128, true, 0.35, func(u, rungs int) int { return 1 + u%(rungs-1) }},
		{"200x6-near-infeasible", 200, false, 0.97, func(u, _ int) int { return u%3 - 1 }},
		{"24x12", 24, true, 0.2, func(u, rungs int) int { return u % rungs }},
		{"8x6", 8, false, 0.1, func(u, rungs int) int { return u % rungs }},
	} {
		p := shapedProblem(sh.n, sh.fine, 4, 1, 1)
		var floorRBs float64
		for u := range p.Flows {
			f := &p.Flows[u]
			f.PrevLevel = sh.prevLevel(u, f.Ladder.Len())
			floorRBs += p.CostRBs(u, f.Ladder.Rate(0))
		}
		p.TotalRBs = floorRBs / sh.floorShare
		b.Run(sh.name+"/banded", func(b *testing.B) {
			solver := NewExactSolver()
			var sol Solution
			if err := solver.SolveInto(p, &sol); err != nil || !sol.Feasible {
				b.Fatalf("warm-up solve: feasible=%v err=%v", sol.Feasible, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := solver.SolveInto(p, &sol); err != nil {
					b.Fatal(err)
				}
			}
		})
		// The same instance through the test-only full-table DP
		// (mckp_ref_test.go): the ratio is what the band saves.
		b.Run(sh.name+"/full-table", func(b *testing.B) {
			bins := NewExactSolver().Bins
			sc, logs := new(scratchPool).borrow(bins)
			var sol Solution
			for i := -1; i < b.N; i++ { // one untimed solve allocates the tables
				if i == 0 {
					b.ResetTimer()
				}
				sol.reset()
				if err := sc.solveFullTable(p, bins, logs, &sol); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
