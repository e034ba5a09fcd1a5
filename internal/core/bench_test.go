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
