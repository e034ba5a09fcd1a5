package core

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/has"
)

// coldSolve is the reference the shared-scratch tests compare against:
// the same DP on a brand-new scratch set nothing else has touched.
func coldSolve(t testing.TB, p *Problem, bins int) Solution {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Flows) == 0 {
		return p.solutionFor(nil, true)
	}
	sc, logs := new(scratchPool).borrow(bins) // an empty pool: new set, new curve
	var sol Solution
	if err := sc.solve(p, bins, logs, &sol); err != nil {
		t.Fatal(err)
	}
	return sol
}

// poisonIdleScratch overwrites every idle scratch set, over its whole
// capacity, with values no solve could mistake for its own: if solve
// read an entry before writing it, the result would change.
func poisonIdleScratch() {
	solverScratch.mu.Lock()
	defer solverScratch.mu.Unlock()
	for _, sc := range solverScratch.free {
		for _, fs := range [][]float64{sc.utilsB[:cap(sc.utilsB)], sc.dp[:cap(sc.dp)], sc.nxt[:cap(sc.nxt)]} {
			for i := range fs {
				fs[i] = math.NaN()
			}
		}
		costs := sc.costsB[:cap(sc.costsB)]
		for i := range costs {
			costs[i] = -1 << 40
		}
		choice := sc.choice[:cap(sc.choice)]
		for i := range choice {
			choice[i] = 0x7f
		}
		clear(sc.costs[:cap(sc.costs)])
		clear(sc.utils[:cap(sc.utils)])
	}
}

func sameSolution(a, b Solution) bool {
	if a.Feasible != b.Feasible || len(a.Levels) != len(b.Levels) || len(a.RatesBps) != len(b.RatesBps) ||
		math.Float64bits(a.VideoShare) != math.Float64bits(b.VideoShare) ||
		math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		return false
	}
	for i := range a.Levels {
		if a.Levels[i] != b.Levels[i] || math.Float64bits(a.RatesBps[i]) != math.Float64bits(b.RatesBps[i]) {
			return false
		}
	}
	return true
}

// shapedProblem builds an n-flow instance with per-flow radio costs and
// histories that differ, on the 6-rung sim or 12-rung fine ladder.
func shapedProblem(n int, fine bool, numData int, alpha, totalRBs float64) *Problem {
	p := testProblem(n, -1, numData, alpha, 10)
	p.TotalRBs = totalRBs
	for u := range p.Flows {
		f := &p.Flows[u]
		if fine {
			f.Ladder = has.FineLadder()
		}
		f.RBsPerByte = 1 / (4 + float64(u%7)*3.5)
		f.PrevLevel = u%(f.Ladder.Len()+1) - 1
	}
	return p
}

// TestLogCurveReproducesDataTerm pins the identity the final scan rests
// on: n*alpha times the shared log curve is DataTerm on the bucket
// grid, bit for bit.
func TestLogCurveReproducesDataTerm(t *testing.T) {
	for _, bins := range []int{10, 333, 4000} {
		_, logs := new(scratchPool).borrow(bins)
		for _, n := range []int{1, 3, 17, 1000} {
			for _, alpha := range []float64{0.25, 1, 3.7, 1e-9, 100} {
				p := &Problem{NumDataFlows: n, Alpha: alpha}
				k := float64(n) * alpha
				for j := 0; j <= bins; j++ {
					got, want := float64(k*logs[j]), p.DataTerm(float64(j)/float64(bins))
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("bins=%d n=%d alpha=%v j=%d: curve gives %v, DataTerm %v", bins, n, alpha, j, got, want)
					}
				}
			}
		}
	}
}

// TestScratchCrossShapeBitExact pushes problems of deliberately
// different shapes through the shared scratch in adversarial order —
// every problem is solved right after a larger one, right after a
// smaller one, and after the idle sets were poisoned — and requires
// every Solution to equal, float bits included, the one a brand-new
// scratch set produces. This is the proof behind "cells share solver
// scratch": a solve reads nothing it did not write.
func TestScratchCrossShapeBitExact(t *testing.T) {
	type shape struct {
		name string
		bins int
		p    *Problem
	}
	shapes := []shape{
		{"n128-fine-4000", 4000, shapedProblem(128, true, 3, 1, 6e6)},
		{"n0", 4000, shapedProblem(0, false, 2, 1, 5e5)},
		{"n1-sim-10", 10, shapedProblem(1, false, 0, 1, 5e5)},
		{"n8-sim-4000", 4000, shapedProblem(8, false, 2, 1, 5e5)},
		{"n8-sim-4000-data7-alpha0.3", 4000, shapedProblem(8, false, 7, 0.3, 5e5)},
		{"n8-fine-10", 10, shapedProblem(8, true, 1, 2.5, 9e5)},
		{"n8-infeasible", 4000, shapedProblem(8, false, 1, 1, 100)},
		{"n128-sim-10", 10, shapedProblem(128, false, 5, 1, 8e6)},
		{"n1-fine-4000-alpha0", 4000, shapedProblem(1, true, 4, 0, 5e5)},
	}
	want := make([]Solution, len(shapes))
	sawInfeasible := false
	for i, s := range shapes {
		want[i] = coldSolve(t, s.p, s.bins)
		sawInfeasible = sawInfeasible || !want[i].Feasible
	}
	if !sawInfeasible {
		t.Fatal("shape list has no infeasible instance")
	}
	check := func(pass string, i int) {
		s := shapes[i]
		got, err := (&ExactSolver{Bins: s.bins}).Solve(s.p)
		if err != nil {
			t.Fatalf("%s %s: %v", pass, s.name, err)
		}
		if !sameSolution(got, want[i]) {
			t.Fatalf("%s %s: shared scratch gave %+v, fresh scratch %+v", pass, s.name, got, want[i])
		}
	}
	for i := range shapes {
		check("forward", i)
	}
	for i := len(shapes) - 1; i >= 0; i-- {
		check("reverse", i)
	}
	for i := range shapes {
		poisonIdleScratch()
		check("poisoned", i)
	}
}

// TestScratchPoolNeverSharesASet drives the freelist alone: every
// borrower stamps its identity over the set it was handed, yields, and
// must find the stamp intact. Two simultaneous holders of one set would
// trip the stamp check (and the race detector).
func TestScratchPoolNeverSharesASet(t *testing.T) {
	var pool scratchPool
	workers := runtime.GOMAXPROCS(0) * 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id float64) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sc, _ := pool.borrow(10)
				if sc.dp == nil {
					sc.dp = make([]float64, 16)
				}
				for j := range sc.dp {
					sc.dp[j] = id
				}
				runtime.Gosched()
				for j := range sc.dp {
					if sc.dp[j] != id {
						t.Errorf("worker %v found %v in its borrowed set", id, sc.dp[j])
						break
					}
				}
				pool.giveBack(sc)
			}
		}(float64(w + 1))
	}
	wg.Wait()
	if len(pool.free) != pool.sets {
		t.Fatalf("%d sets created, %d on the freelist at rest", pool.sets, len(pool.free))
	}
	if pool.sets > workers {
		t.Fatalf("%d sets for %d borrowers", pool.sets, workers)
	}
}

// TestConcurrentControllersMatchSerial: GOMAXPROCS*4 goroutines each
// drive their own controller (cells of different sizes and ladders)
// through 200 BAIs on the shared freelist; every assignment must equal
// the serial run's, and the freelist must hold exactly one set per
// simultaneous solve it ever saw — no more than the test's own count of
// overlapping RunBAI calls.
func TestConcurrentControllersMatchSerial(t *testing.T) {
	const bais = 200
	workers := runtime.GOMAXPROCS(0) * 4
	// build is called on the test goroutine only.
	build := func(w int) *Controller {
		c := NewController(DefaultConfig())
		ladder := has.SimLadder()
		if w%2 == 1 {
			ladder = has.FineLadder()
		}
		for id := 0; id < 1+w%9; id++ {
			if err := c.Register(id, ladder, Preferences{}); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	// drive runs one controller's BAIs with a stats stream that depends
	// only on (w, bai), so serial and concurrent runs see the same input.
	drive := func(w int, c *Controller, around func(func())) [][]Assignment {
		out := make([][]Assignment, bais)
		stats := make(map[int]FlowStats)
		for b := 0; b < bais; b++ {
			for id := 0; id < c.NumFlows(); id++ {
				stats[id] = FlowStats{Bytes: int64(20_000 + 900*((w+id+b)%11)), RBs: int64(1500 + 70*((id+2*b)%13))}
			}
			around(func() {
				as, err := c.RunBAI(stats, (w+b/50)%4)
				if err != nil {
					t.Error(err)
				}
				out[b] = slices.Clone(as) // as is the controller's buffer, overwritten next round
			})
		}
		return out
	}
	want := make([][][]Assignment, workers)
	for w := range want {
		want[w] = drive(w, build(w), func(f func()) { f() })
	}

	setsBefore, _ := SolverScratchStats()
	var inFlight, peak atomic.Int64
	got := make([][][]Assignment, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, c *Controller) {
			defer wg.Done()
			got[w] = drive(w, c, func(f func()) {
				n := inFlight.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				f()
				inFlight.Add(-1)
			})
		}(w, build(w))
	}
	wg.Wait()

	for w := range want {
		for b := range want[w] {
			if len(got[w][b]) != len(want[w][b]) {
				t.Fatalf("controller %d BAI %d: %d assignments, serial had %d", w, b, len(got[w][b]), len(want[w][b]))
			}
			for i := range want[w][b] {
				if got[w][b][i] != want[w][b][i] {
					t.Fatalf("controller %d BAI %d: concurrent %+v, serial %+v", w, b, got[w][b][i], want[w][b][i])
				}
			}
		}
	}
	sets, _ := SolverScratchStats()
	if limit := max(int64(setsBefore), peak.Load()); int64(sets) > limit {
		t.Fatalf("%d scratch sets exist; at most %d solves ever overlapped", sets, limit)
	}
	solverScratch.mu.Lock()
	idle := len(solverScratch.free)
	solverScratch.mu.Unlock()
	if idle != sets {
		t.Fatalf("%d sets exist but %d are on the freelist at rest", sets, idle)
	}
}

// TestControllerSolveTimesBounded runs maxSolveTimes+100 BAIs through a
// fake clock that makes BAI i take i nanoseconds, and requires the
// history to hold exactly the most recent maxSolveTimes, oldest first.
func TestControllerSolveTimesBounded(t *testing.T) {
	c := controllerForTest(t, DefaultConfig(), 1)
	now := time.Unix(1_000_000, 0)
	bai, reading := 0, 0
	c.SetWallClock(func() time.Time {
		if reading++; reading%2 == 0 {
			now = now.Add(time.Duration(bai))
		}
		return now
	})
	const total = maxSolveTimes + 100
	for bai = 1; bai <= total; bai++ {
		if _, err := c.RunBAI(nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	times := c.SolveTimes()
	if len(times) != maxSolveTimes || cap(c.solveTimes) > 2*maxSolveTimes {
		t.Fatalf("history holds %d (cap %d) after %d BAIs, want %d", len(times), cap(c.solveTimes), total, maxSolveTimes)
	}
	for i, d := range times {
		if want := time.Duration(total - maxSolveTimes + 1 + i).Seconds(); d != want {
			t.Fatalf("times[%d] = %v s, want %v s (most recent %d, oldest first)", i, d, want, maxSolveTimes)
		}
	}
}
