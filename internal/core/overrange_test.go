package core

import (
	"math"
	"strings"
	"testing"

	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/lte"
)

// overrangeProblem is a two-flow cell whose second flow carries the
// given ladder and radio cost; the first is an ordinary SimLadder flow.
func overrangeProblem(ladder has.Ladder, rbsPerByte float64) *Problem {
	return &Problem{
		Flows: []VideoFlow{
			{ID: 0, Ladder: has.SimLadder(), Beta: 10, ThetaBps: 2e5, PrevLevel: -1, RBsPerByte: 0.01},
			{ID: 1, Ladder: ladder, Beta: 10, ThetaBps: 2e5, PrevLevel: -1, RBsPerByte: rbsPerByte},
		},
		NumDataFlows: 1,
		Alpha:        1,
		TotalRBs:     50_000,
		BAISeconds:   1,
	}
}

// TestExactSolverSaturatesOverrangeCosts: a cost beyond what an int
// holds, or NaN, converted to bins used to wrap to -2^63 and send the
// DP's slices out of range. It now means "never fits": a level that
// cannot fit is never chosen, and a flow whose lowest level cannot fit
// makes the instance infeasible.
func TestExactSolverSaturatesOverrangeCosts(t *testing.T) {
	for _, c := range []struct {
		name       string
		ladder     has.Ladder
		rbsPerByte float64
		feasible   bool
		levels     []int
	}{
		{"lowest rung 1e300", has.Ladder{1e300}, 0.01, false, []int{0, 0}},
		{"top rung 1e300", has.Ladder{1e5, 1e300}, 0.01, true, []int{5, 0}},
		{"NaN radio cost", has.SimLadder(), math.NaN(), false, []int{0, 0}},
		{"infinite radio cost", has.SimLadder(), math.Inf(1), false, []int{0, 0}},
		{"radio cost 9e18", has.SimLadder(), 9e18, false, []int{0, 0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sol, err := NewExactSolver().Solve(overrangeProblem(c.ladder, c.rbsPerByte))
			if err != nil {
				t.Fatal(err)
			}
			if sol.Feasible != c.feasible || len(sol.Levels) != 2 || sol.Levels[0] != c.levels[0] || sol.Levels[1] != c.levels[1] {
				t.Errorf("feasible %v levels %v, want %v %v", sol.Feasible, sol.Levels, c.feasible, c.levels)
			}
		})
	}
}

// panicObjective panics the first time the solver asks it for a
// utility.
type panicObjective struct{ eq2Objective }

func (panicObjective) Utility(float64, float64, float64) float64 { panic("objective failed") }

// TestExactSolverGivesScratchBackOnPanic: a solve that panics part way
// still returns its borrowed scratch set to the freelist, so repeated
// failures neither drain it nor make new sets.
func TestExactSolverGivesScratchBackOnPanic(t *testing.T) {
	s := NewExactSolver()
	if _, err := s.Solve(overrangeProblem(has.SimLadder(), 0.01)); err != nil {
		t.Fatal(err)
	}
	idle := func() (int, int) {
		solverScratch.mu.Lock()
		defer solverScratch.mu.Unlock()
		return len(solverScratch.free), solverScratch.sets
	}
	free0, sets0 := idle()
	p := overrangeProblem(has.SimLadder(), 0.01)
	p.Objective = panicObjective{}
	for i := 0; i < 5; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("the objective's panic did not reach the caller")
				}
			}()
			_, _ = s.Solve(p)
		}()
	}
	if free, sets := idle(); free != free0 || sets != sets0 {
		t.Errorf("after 5 panicking solves: %d idle of %d sets, want %d of %d", free, sets, free0, sets0)
	}
}

// TestLadderLevelLimit: the DP records a level in an int8, so a ladder
// of MaxLevels rungs is solved to its top level and a longer one is
// refused by Problem.Validate and Controller.Register — it used to be
// solved silently to a wrapped level (43 of 300).
func TestLadderLevelLimit(t *testing.T) {
	ladder := func(n int) has.Ladder {
		l := make(has.Ladder, n)
		for i := range l {
			l[i] = float64(i+1) * 1000
		}
		return l
	}
	p := overrangeProblem(ladder(MaxLevels), 1e-6)
	p.TotalRBs = 1e9
	sol, err := NewExactSolver().Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || sol.Levels[1] != MaxLevels-1 {
		t.Errorf("%d-level ladder in an ample cell: feasible %v level %d, want level %d", MaxLevels, sol.Feasible, sol.Levels[1], MaxLevels-1)
	}
	for _, n := range []int{MaxLevels + 1, 300} {
		p := overrangeProblem(ladder(n), 1e-6)
		if _, err := NewExactSolver().Solve(p); err == nil || !strings.Contains(err.Error(), "levels") {
			t.Errorf("%d-level ladder: exact solve error %v, want a level-limit refusal", n, err)
		}
		if _, err := NewRelaxedSolver().Solve(p); err == nil {
			t.Errorf("%d-level ladder: the relaxed solver accepted it", n)
		}
		if err := NewController(DefaultConfig()).Register(1, ladder(n), Preferences{}); err == nil {
			t.Errorf("%d-level ladder: Register accepted it", n)
		}
	}
	if err := NewController(DefaultConfig()).Register(1, ladder(MaxLevels), Preferences{}); err != nil {
		t.Errorf("%d-level ladder: Register refused it: %v", MaxLevels, err)
	}
}

// TestFloorAbovePeakCellRate: PeakCellRateBps is lte's own peak (every
// RB at the top iTbs), and Register refuses a ladder whose floor rung is
// above it — admitted, a 1e300 floor held every neighbour in its cell at
// level 0 — while a floor at the peak registers.
func TestFloorAbovePeakCellRate(t *testing.T) {
	if peak := lte.CellRateBps(lte.MaxITbs); math.Abs(peak-PeakCellRateBps) > 1e-6*PeakCellRateBps {
		t.Fatalf("PeakCellRateBps = %g, lte's peak is %g", float64(PeakCellRateBps), peak)
	}
	c := NewController(DefaultConfig())
	for id, floor := range []float64{math.Nextafter(PeakCellRateBps, math.Inf(1)), 4e9, 1e300} {
		if err := c.Register(id, has.Ladder{floor}, Preferences{}); err == nil || !strings.Contains(err.Error(), "peak cell rate") {
			t.Errorf("floor %g: Register error %v, want a peak-rate refusal", floor, err)
		}
	}
	if err := c.Register(9, has.Ladder{PeakCellRateBps}, Preferences{}); err != nil {
		t.Errorf("floor at the peak: Register refused it: %v", err)
	}
}

// TestPreferenceBounds: Validate refuses a Beta or ThetaBps past its
// bound, and a flow at both bounds at once still leaves a default
// neighbour its top level in a cell that fits both there: two 4-level
// flows on a closely spaced ladder, 40 BAIs. Past the bounds the
// neighbour's utility steps fall below the float64 sum's resolution:
// on this ladder β 1e17 alone, or β 1e9 with θ 2e13, holds it at 0.
func TestPreferenceBounds(t *testing.T) {
	for _, p := range []Preferences{
		{Beta: math.Nextafter(MaxBeta, math.Inf(1))},
		{ThetaBps: math.Nextafter(MaxThetaBps, math.Inf(1))},
		{Beta: 1e17}, {ThetaBps: 1e300}, {Beta: math.Inf(1)},
	} {
		if p.Validate() == nil {
			t.Errorf("%+v: Validate accepted it", p)
		}
	}
	atBounds := Preferences{Beta: MaxBeta, ThetaBps: MaxThetaBps}
	if err := atBounds.Validate(); err != nil {
		t.Fatalf("%+v: %v", atBounds, err)
	}
	c := NewController(DefaultConfig())
	ladder := has.NewLadderKbps(1100, 1200, 1300, 1400)
	if err := c.Register(1, ladder, atBounds); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(2, ladder, Preferences{}); err != nil {
		t.Fatal(err)
	}
	stats := map[int]FlowStats{1: {Bytes: 1_000_000, RBs: 50_000}, 2: {Bytes: 1_000_000, RBs: 50_000}}
	var as []Assignment
	for range 40 {
		var err error
		if as, err = c.RunBAI(stats, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range as {
		if a.Level != 3 {
			t.Errorf("flow %d at level %d after 40 BAIs, want 3", a.FlowID, a.Level)
		}
	}
}
