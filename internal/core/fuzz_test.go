package core

import "testing"

func FuzzGateApply(f *testing.F) {
	f.Add(4, 0, -1, 0)
	f.Add(4, 1, 3, 4)
	f.Add(0, 2, 5, 0)
	f.Add(12, 7, 11, 12)
	f.Fuzz(func(t *testing.T, delta, flowID, prev, rec int) {
		if delta < 0 || delta > 100 {
			delta %= 101
			if delta < 0 {
				delta = -delta
			}
		}
		if prev < -1 {
			prev = -1
		}
		// flowID picks the streak the flow carries in, as a row of the
		// flow table would: any streak short of the climb's requirement.
		streak := 0
		if need := delta * (prev + 2); need > 1 {
			streak = int(uint(flowID) % uint(need))
		}
		got, next, _ := GateStep(delta, streak, prev, rec)
		if next < 0 || (next > 0 && rec != prev+1) {
			t.Fatalf("streak %d after prev %d rec %d", next, prev, rec)
		}
		if prev < 0 {
			if got != rec {
				t.Fatalf("first assignment %d != recommendation %d", got, rec)
			}
			return
		}
		if got > prev+1 {
			t.Fatalf("gate jumped: prev %d -> %d", prev, got)
		}
		if rec >= prev && got < prev {
			t.Fatalf("gate dropped without a lower recommendation: prev %d rec %d -> %d", prev, rec, got)
		}
		if rec < prev && got != rec {
			t.Fatalf("drop not applied: prev %d rec %d -> %d", prev, rec, got)
		}
	})
}

func FuzzExactSolverStaysFeasible(f *testing.F) {
	f.Add(uint8(3), int64(50_000), 10.0, 1.0)
	f.Add(uint8(1), int64(100), 0.5, 0.0)
	f.Add(uint8(8), int64(5_000_000), 40.0, 4.0)
	f.Fuzz(func(t *testing.T, nRaw uint8, totalRBs int64, bytesPerRB, alpha float64) {
		n := int(nRaw)%8 + 1
		if totalRBs <= 0 {
			totalRBs = -totalRBs + 1
		}
		if bytesPerRB <= 0.01 || bytesPerRB > 1e6 || bytesPerRB != bytesPerRB {
			bytesPerRB = 10
		}
		if alpha < 0 || alpha > 100 || alpha != alpha {
			alpha = 1
		}
		p := testProblem(n, -1, int(nRaw)%3, alpha, bytesPerRB)
		p.TotalRBs = float64(totalRBs)
		sol, err := NewExactSolver().Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Feasible && sol.VideoShare > 1+1e-9 {
			t.Fatalf("feasible solution uses %v of the cell", sol.VideoShare)
		}
		for u, l := range sol.Levels {
			if l < 0 || l > p.Flows[u].MaxLevel() {
				t.Fatalf("level %d out of range for flow %d", l, u)
			}
		}
	})
}
