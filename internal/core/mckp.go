package core

import (
	"fmt"
	"math"
	"sync"
)

// ExactSolver solves the discrete problem (Eq. 3-4) as a multiple-choice
// knapsack: each flow picks one level from [0, MaxLevel]; the capacity
// axis is discretised into Bins RB buckets (costs rounded up, so the
// capacity constraint is never violated); a final scan over the bucket
// index trades video RBs against the data term n*alpha*log(1-r).
//
// This replaces the paper's "solve (3-4) exactly" KNITRO configuration.
// With the default 4000 bins the discretisation error is below 0.03% of
// the band, far finer than one ladder step; the brute-force solver in
// the tests confirms the DP matches true optima on small instances.
//
// An ExactSolver holds only its resolution: Solve borrows its DP tables
// from a process-wide freelist (solverScratch) for the call, so it is
// safe for concurrent use and retains peak simultaneous solves x largest
// problem seen, however many solvers (cells) exist.
type ExactSolver struct {
	// Bins is the capacity discretisation granularity.
	Bins int
}

// NewExactSolver returns an ExactSolver with the default resolution.
func NewExactSolver() *ExactSolver { return &ExactSolver{Bins: 4000} }

// mckpScratch is one set of DP tables, grown on demand and never
// shrunk. Sets are shared between cells of any shape, so isolation
// rests on one rule: solve overwrites every entry it later reads.
type mckpScratch struct {
	costs  [][]int
	utils  [][]float64
	costsB []int
	utilsB []float64
	dp     []float64
	nxt    []float64
	choice []int8 // n rows of one band width each (see solve)
}

// MaxLevels is the longest ladder the exact solver can index: choice
// records a level in an int8. Problem.Validate and Controller.Register
// refuse a longer one.
const MaxLevels = math.MaxInt8 + 1

// scratchPool is the freelist ExactSolver.Solve borrows from: a mutex-
// guarded stack, not a sync.Pool, whose drops at every GC would tie
// allocation counts to collector timing. mu is the innermost ranked lock
// (internal/lint's lockRanks): taken under oneapi's cellState.mu for one
// push or pop.
type scratchPool struct {
	mu sync.Mutex
	// free is LIFO: back-to-back solves of different cells reuse the set
	// that is still warm in cache.
	free []*mckpScratch
	// sets counts sets ever created. One is created only when all others
	// are on loan, so this is also the peak number of simultaneous solves.
	sets int
	// curves are immutable tables of log(1 - j/bins), j in [0, bins]: the
	// data term with its per-problem n*alpha divided out, one per resolution.
	// Production uses one slot; the rest (round-robin) spare mixed-bins tests.
	curves    [4][]float64
	nextCurve int
}

var solverScratch scratchPool

// borrow pops the most recently returned set (or makes an empty one) and
// finds the log curve for bins, built under the lock on first use (~40 µs).
func (sp *scratchPool) borrow(bins int) (sc *mckpScratch, logs []float64) {
	sp.mu.Lock()
	if n := len(sp.free); n > 0 {
		sc, sp.free[n-1] = sp.free[n-1], nil
		sp.free = sp.free[:n-1]
	} else {
		sc = new(mckpScratch)
		sp.sets++
	}
	for _, c := range sp.curves {
		if len(c) == bins+1 {
			logs = c
		}
	}
	if logs == nil {
		logs = make([]float64, bins+1)
		for j := range logs {
			logs[j] = math.Log(1 - float64(j)/float64(bins))
		}
		sp.curves[sp.nextCurve%len(sp.curves)] = logs
		sp.nextCurve++
	}
	sp.mu.Unlock()
	return sc, logs
}

// giveBack pushes a borrowed set for the next solve.
func (sp *scratchPool) giveBack(sc *mckpScratch) {
	sp.mu.Lock()
	sp.free = append(sp.free, sc)
	sp.mu.Unlock()
}

// SolverScratchStats reports the exact solver's retained memory: how
// many scratch sets exist (the peak number of simultaneous solves so
// far) and the table bytes of the idle ones (a set on loan is not sized).
func SolverScratchStats() (sets int, bytes int64) {
	solverScratch.mu.Lock()
	defer solverScratch.mu.Unlock()
	for _, sc := range solverScratch.free { // two tables of each width
		bytes += int64(48*cap(sc.costs) + 16*cap(sc.costsB) + 16*cap(sc.dp) + cap(sc.choice))
	}
	return solverScratch.sets, bytes
}

// Solve runs the DP and returns the best feasible assignment in a
// Solution of its own.
func (s *ExactSolver) Solve(p *Problem) (Solution, error) {
	var sol Solution
	err := s.SolveInto(p, &sol)
	return sol, err
}

// SolveInto is Solve into caller storage: sol's Levels and RatesBps
// arrays are overwritten in place when they are large enough, so a
// caller that hands the same Solution to every solve (the Controller)
// allocates nothing in steady state. On error sol is empty.
func (s *ExactSolver) SolveInto(p *Problem, sol *Solution) error {
	sol.reset()
	if err := p.Validate(); err != nil {
		return err
	}
	if len(p.Flows) == 0 {
		p.fill(sol, nil, true)
		return nil
	}
	bins := s.Bins
	if bins < 10 {
		bins = 10
	}
	sc, logs := solverScratch.borrow(bins)
	defer solverScratch.giveBack(sc) // a panicking objective must not leak the set
	return sc.solve(p, bins, logs, sol)
}

// solve is the DP proper on a borrowed set; logs is the curve for bins.
// sol arrives empty (reset) and stays so on error.
func (s *mckpScratch) solve(p *Problem, bins int, logs []float64, sol *Solution) error {
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
	// lo is the cost of the all-lowest assignment: no assignment fits in
	// fewer bins, and once it exceeds the cell nothing fits at all.
	lo, feasible := 0, true
	for u := range p.Flows {
		f := &p.Flows[u]
		maxL := f.MaxLevel()
		costs[u] = s.costsB[off : off+maxL+1 : off+maxL+1]
		utils[u] = s.utilsB[off : off+maxL+1 : off+maxL+1]
		off += maxL + 1
		for l := 0; l <= maxL; l++ {
			// A cost beyond the cell, or NaN, saturates at bins+1:
			// it never fits, and sums of such costs cannot overflow.
			c := math.Ceil(p.CostRBs(u, f.Ladder.Rate(l)) / binRBs)
			if c <= float64(bins) {
				costs[u][l] = int(c)
			} else {
				costs[u][l] = bins + 1
			}
			utils[u][l] = p.UtilityAt(u, l)
		}
		if c0 := costs[u][0]; feasible && c0 <= bins-lo {
			lo += c0
		} else {
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
	// dp[j]: max total utility of the flows processed so far using at most
	// j bins (-inf where even their lowest levels need more), with
	// choice[u][j] recording flow u's level in the best assignment
	// reaching j.
	//
	// Only a band of each row is ever computed. Below rowLo — the lowest-
	// level cost of flows 0..u — the row is -inf, and a -inf candidate
	// never wins a strict >. Above top = bins - (lo - rowLo) the flows
	// still to come cannot fit, so no later row reads the cell on its way
	// to a final j <= bins: row u+1 reads at most its own top minus its
	// lowest cost, which is row u's top. The band is width cells wide in
	// every row; dp and next keep absolute indices, choice stores row u's
	// band at offset j - rowLo.
	width := bins - lo + 1
	if cap(s.dp) < bins+1 {
		s.dp = make([]float64, bins+1)
		s.nxt = make([]float64, bins+1)
	}
	if cap(s.choice) < n*width {
		// Sized for the widest band n flows can have: lo moves with every
		// BAI's radio costs, and a table regrown for each slightly wider
		// band is garbage the size of the table each time. The pages past
		// n*width are never touched.
		s.choice = make([]int8, n*(bins+1))
	}
	dp, next := s.dp[:bins+1], s.nxt[:bins+1]
	choice := s.choice[:n*width]
	clear(dp[:width])
	// sat is the saturation bound after the flows processed so far: the
	// sum of their max-level costs, capped at bins. For j >= sat every
	// level's lookback dp[j-c] reads the (inductively constant) saturated
	// region of the previous row, so value and first-wins argmax are the
	// same for all such j — the tail is filled by copying the entry at
	// the bound instead of recomputing it, bit-identically.
	sat, prevLo := 0, 0
	for u := 0; u < n; u++ {
		cu, uu := costs[u], utils[u]
		c0, u0 := cu[0], uu[0]
		rowLo := prevLo + c0
		top := rowLo + width - 1
		chu := choice[u*width : (u+1)*width]
		sat += cu[len(cu)-1] // costs ascend in l, so the last is the max
		if sat > bins {
			sat = bins
		}
		bound := min(sat, top) // sat >= rowLo: max-level costs bound the lowest
		// Level-outer sweep: for each capacity j the argmax over levels is
		// taken in ascending l with strict >, which visits exactly the
		// candidates of the natural per-j scan in the same order — ties
		// resolve to the same level, so the result is bit-identical to the
		// j-outer formulation while keeping the inner loop branch-light
		// and stride-1.
		//
		// Level 0 is peeled: everywhere in the band its lookback lands in
		// the previous row's band, so the candidate always replaces the
		// -inf initialiser and is written directly instead of
		// init-then-compare. Level l starts where its own lookback enters
		// that band, at prevLo + c.
		{
			dpc := dp[prevLo : bound+1-c0 : bound+1-c0]
			nx := next[rowLo : bound+1 : bound+1]
			ch := chu[: bound+1-rowLo : bound+1-rowLo]
			for j, dv := range dpc {
				nx[j] = dv + u0
				ch[j] = 0
			}
		}
		for l := 1; l < len(cu); l++ {
			c := cu[l]
			if prevLo+c > bound {
				break // costs are ascending in l
			}
			ul := uu[l]
			l8 := int8(l)
			dpc := dp[prevLo : bound+1-c : bound+1-c]
			nx := next[prevLo+c : bound+1 : bound+1]
			ch := chu[c-c0 : bound+1-rowLo : bound+1-rowLo]
			for j, dv := range dpc {
				if v := dv + ul; v > nx[j] {
					nx[j] = v
					ch[j] = l8
				}
			}
		}
		// Saturated tail: identical to the entry at the bound.
		if bound < top {
			vn, vc := next[bound], chu[bound-rowLo]
			for j := bound + 1; j <= top; j++ {
				next[j] = vn
				chu[j-rowLo] = vc
			}
		}
		dp, next = next, dp
		prevLo = rowLo
	}

	// Pick the bucket count that maximises utility + data term. The term
	// is DataTerm(j/bins) to the bit — the same left-to-right product
	// float64(n)*alpha*log(1-r), the log read from the shared curve — and
	// the conversion keeps it rounded before the add (no fused multiply).
	dataK := float64(p.NumDataFlows) * p.Alpha // 0 iff DataTerm is identically 0
	bestObj := negInf
	bestJ := -1
	for j := lo; j <= bins; j++ {
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

	// Backtrack the choices; rowLo follows the bands back down.
	j, rowLo := bestJ, lo
	for u := n - 1; u >= 0; u-- {
		l := choice[u*width+j-rowLo]
		if l < 0 {
			return fmt.Errorf("core: DP backtrack failed at flow %d", u)
		}
		levels[u] = int(l)
		j -= costs[u][l]
		rowLo -= costs[u][0]
	}
	p.fill(sol, levels, true)
	return nil
}

// BruteForce exhaustively enumerates every level combination. It is
// exponential and exists to validate the DP and relaxation solvers on
// small instances (tests and benchmarks only).
func BruteForce(p *Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	n := len(p.Flows)
	levels := p.lowestLevels()
	best := make([]int, n)
	bestObj := math.Inf(-1)
	found := false

	var walk func(u int)
	walk = func(u int) {
		if u == n {
			if obj, _ := p.ObjectiveAt(levels); obj > bestObj {
				bestObj = obj
				copy(best, levels)
				found = true
			}
			return
		}
		maxL := p.Flows[u].MaxLevel()
		for l := 0; l <= maxL; l++ {
			levels[u] = l
			walk(u + 1)
		}
		levels[u] = 0
	}
	walk(0)

	if !found || math.IsInf(bestObj, -1) {
		return p.solutionFor(p.lowestLevels(), false), nil
	}
	return p.solutionFor(best, true), nil
}
