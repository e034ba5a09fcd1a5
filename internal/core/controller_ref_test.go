package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/sim"
)

// This file keeps the controller's per-flow bookkeeping as it was before
// the flow table (controller.go) replaced it, as the oracle the table is
// compared with: a map of heap-allocated flow records re-sorted by ID
// every BAI, Algorithm 1's streaks in a map of their own, and — one
// layer up, in the OneAPI server's cell — the installed assignments in a
// third map. The bookkeeping is verbatim; the solve and the shed state
// machine are the production ones' twins, minus telemetry and timing.

type ctrlFlow struct {
	id         int
	ladder     has.Ladder
	beta       float64
	theta      float64
	maxBps     float64
	skimming   bool
	level      int // current assigned level, -1 before first BAI
	rbsPerByte float64
}

// effectiveMaxBps folds the skimming pin into the client cap.
func (f *ctrlFlow) effectiveMaxBps() float64 {
	if f.skimming {
		return f.ladder.Min()
	}
	return f.maxBps
}

// refGate implements the stability rule of Algorithm 1 over a map of
// per-flow streaks.
type refGate struct {
	delta   int
	streaks map[int]int
}

func newRefGate(delta int) *refGate {
	return &refGate{delta: delta, streaks: make(map[int]int)}
}

func (g *refGate) required(prevLevel int) int {
	return g.delta * (prevLevel + 2)
}

func (g *refGate) ApplyDetail(flowID, prevLevel, recommended int) (final, streak, need int) {
	if prevLevel < 0 {
		g.streaks[flowID] = 0
		return recommended, 0, 0
	}
	if recommended == prevLevel+1 {
		g.streaks[flowID]++
		if g.delta <= 0 || g.streaks[flowID] >= g.required(prevLevel) {
			g.streaks[flowID] = 0
			return prevLevel + 1, 0, 0
		}
		return prevLevel, g.streaks[flowID], g.required(prevLevel)
	}
	g.streaks[flowID] = 0
	if recommended < prevLevel {
		return recommended, 0, 0
	}
	return prevLevel, 0, 0
}

func (g *refGate) Forget(flowID int) {
	delete(g.streaks, flowID)
}

// refInstallation is one flow's entry in refCell.installed.
type refInstallation struct {
	assignment Assignment
	seq        int64
}

// refController is the map-based controller.
type refController struct {
	cfg   Config
	obj   Objective
	exact *ExactSolver
	relax *RelaxedSolver
	gate  *refGate
	flows map[int]*ctrlFlow

	shed       int
	calmStreak int

	scratchIDs []int
	prob       Problem
	sol        Solution
	out        []Assignment
}

// newRefController takes the production controller's resolved config,
// so both sides run on the same defaults.
func newRefController(cfg Config) *refController {
	obj, _ := ObjectiveByName(cfg.Objective)
	return &refController{
		cfg:   cfg,
		obj:   obj,
		exact: NewExactSolver(),
		relax: NewRelaxedSolver(),
		gate:  newRefGate(cfg.Delta),
		flows: make(map[int]*ctrlFlow),
	}
}

func (c *refController) Register(flowID int, ladder has.Ladder, prefs Preferences) error {
	if err := ladder.Validate(); err != nil {
		return fmt.Errorf("core: register flow %d: %w", flowID, err)
	}
	if _, exists := c.flows[flowID]; exists {
		return fmt.Errorf("core: flow %d already registered", flowID)
	}
	f := &ctrlFlow{
		id:         flowID,
		ladder:     ladder,
		beta:       c.cfg.Beta,
		theta:      c.cfg.ThetaBps,
		maxBps:     prefs.MaxBps,
		skimming:   prefs.Skimming,
		level:      -1,
		rbsPerByte: 1 / DefaultBytesPerRB,
	}
	if prefs.Beta > 0 {
		f.beta = prefs.Beta
	}
	if prefs.ThetaBps > 0 {
		f.theta = prefs.ThetaBps
	}
	c.flows[flowID] = f
	return nil
}

func (c *refController) Registered(flowID int) bool {
	_, ok := c.flows[flowID]
	return ok
}

func (c *refController) Snapshot(flowID int) (SessionSnapshot, error) {
	f, ok := c.flows[flowID]
	if !ok {
		return SessionSnapshot{}, fmt.Errorf("core: flow %d not registered", flowID)
	}
	return SessionSnapshot{
		Ladder: f.ladder.Clone(),
		Preferences: Preferences{
			MaxBps:   f.maxBps,
			Beta:     f.beta,
			ThetaBps: f.theta,
			Skimming: f.skimming,
		},
	}, nil
}

func (c *refController) Unregister(flowID int) {
	delete(c.flows, flowID)
	c.gate.Forget(flowID)
}

func (c *refController) NumFlows() int { return len(c.flows) }

func (c *refController) SetPreferences(flowID int, prefs Preferences) error {
	f, ok := c.flows[flowID]
	if !ok {
		return fmt.Errorf("core: flow %d not registered", flowID)
	}
	f.maxBps = prefs.MaxBps
	f.skimming = prefs.Skimming
	if prefs.Beta > 0 {
		f.beta = prefs.Beta
	}
	if prefs.ThetaBps > 0 {
		f.theta = prefs.ThetaBps
	}
	return nil
}

func (c *refController) sortedIDs() []int {
	ids := c.scratchIDs[:0]
	if cap(ids) < len(c.flows) {
		ids = make([]int, 0, len(c.flows))
	}
	for id := range c.flows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	c.scratchIDs = ids
	return ids
}

func (c *refController) budgetRBs() float64 {
	return float64(lte.NumRB) * c.cfg.BAI.Seconds() * lte.TTIsPerSecond * c.cfg.CapacityMargin
}

func (c *refController) FloorDemandRBs() float64 {
	var sum float64
	for _, id := range c.sortedIDs() {
		f := c.flows[id]
		sum += c.cfg.BAI.Seconds() * f.ladder.Min() / 8 * f.rbsPerByte
	}
	return sum
}

func (c *refController) CanAdmit(ladder has.Ladder) bool {
	if !c.cfg.AdmissionControl {
		return true
	}
	cand := c.cfg.BAI.Seconds() * ladder.Min() / 8 * (1 / DefaultBytesPerRB)
	return c.FloorDemandRBs()+cand <= c.budgetRBs()
}

func (c *refController) shedCap(f *ctrlFlow) float64 {
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

func (c *refController) updateShed(sol Solution, maxShed int) {
	overloaded := !sol.Feasible || sol.VideoShare > shedHighShare
	switch {
	case overloaded:
		c.calmStreak = 0
		if c.shed < maxShed {
			c.shed++
		}
	case c.shed > 0 && sol.VideoShare < shedLowShare:
		c.calmStreak++
		if c.calmStreak >= shedHoldBAIs {
			c.shed--
			c.calmStreak = 0
		}
	default:
		c.calmStreak = 0
	}
}

func (c *refController) RunBAI(stats map[int]FlowStats, numDataFlows int) ([]Assignment, error) {
	if numDataFlows < 0 {
		return nil, fmt.Errorf("core: negative data flow count %d", numDataFlows)
	}
	ids := c.sortedIDs()
	if len(ids) == 0 {
		return nil, nil
	}

	w := c.cfg.CostSmoothing
	for _, id := range ids {
		f := c.flows[id]
		s, ok := stats[id]
		var sample float64
		switch {
		case ok && s.Bytes > 0 && s.RBs > 0:
			sample = float64(s.RBs) / float64(s.Bytes)
		case ok && s.BytesPerRBHint > 0:
			sample = 1 / s.BytesPerRBHint
		default:
			continue
		}
		f.rbsPerByte += w * (sample - f.rbsPerByte)
	}

	prob := &c.prob
	if cap(prob.Flows) < len(ids) {
		prob.Flows = make([]VideoFlow, len(ids))
	}
	*prob = Problem{
		Flows:           prob.Flows[:len(ids)],
		Objective:       c.obj,
		NumDataFlows:    numDataFlows,
		Alpha:           c.cfg.Alpha,
		TotalRBs:        c.budgetRBs(),
		BAISeconds:      c.cfg.BAI.Seconds(),
		StickinessBonus: c.cfg.StickinessBonus,
	}
	for i, id := range ids {
		f := c.flows[id]
		prob.Flows[i] = VideoFlow{
			ID:         id,
			Ladder:     f.ladder,
			Beta:       f.beta,
			ThetaBps:   f.theta,
			PrevLevel:  f.level,
			RBsPerByte: f.rbsPerByte,
			MaxBps:     c.shedCap(f),
		}
	}

	sol := &c.sol
	var err error
	if c.cfg.UseRelaxation {
		*sol, err = c.relax.Solve(prob)
	} else {
		err = c.exact.SolveInto(prob, sol)
	}
	if err != nil {
		return nil, fmt.Errorf("core: BAI solve: %w", err)
	}

	if c.cfg.DowngradeLadder {
		maxShed := 0
		for i := range prob.Flows {
			if l := prob.Flows[i].Ladder.Len() - 1; l > maxShed {
				maxShed = l
			}
		}
		c.updateShed(*sol, maxShed)
	}

	if cap(c.out) < len(ids) {
		c.out = make([]Assignment, len(ids))
	}
	out := c.out[:len(ids)]
	for i, id := range ids {
		f := c.flows[id]
		final, _, _ := c.gate.ApplyDetail(id, f.level, sol.Levels[i])
		f.level = final
		out[i] = Assignment{
			FlowID:  id,
			Level:   final,
			RateBps: f.ladder.Rate(final),
		}
	}
	return out, nil
}

// refCell is the reference side of one cell: its controller plus the
// server's installed map and BAI sequence.
type refCell struct {
	ctrl      *refController
	installed map[int]refInstallation
	baiSeq    int64
}

// tableCell is the flow-table side of one cell.
type tableCell struct {
	ctrl   *Controller
	baiSeq int64
}

// opReader hands out an op sequence's bytes, zeros once it runs dry.
type opReader struct {
	data []byte
	pos  int
}

func (r *opReader) more() bool { return r.pos < len(r.data) }

func (r *opReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// opIDs is the flow-ID universe ops draw from: not monotone in the
// byte that picks them, negatives included, so rows are inserted and
// removed at the front, the back and in the middle of the table.
var opIDs = [16]int{17, -3, 5, 42, 0, 11, -20, 8, 99, 23, 2, 64, -7, 31, 13, 50}

func (r *opReader) id() int { return opIDs[r.next()%16] }

func (r *opReader) ladder() has.Ladder {
	switch r.next() % 4 {
	case 0:
		return has.SimLadder()
	case 1:
		return has.FineLadder()
	case 2:
		return has.TestbedLadder()
	default:
		return has.Ladder{} // invalid: Register refuses it
	}
}

func (r *opReader) prefs() Preferences {
	b := r.next()
	return Preferences{
		MaxBps:   [4]float64{0, 300_000, 800_000, 2e6}[b%4],
		Beta:     [3]float64{0, 5, 20}[(b>>2)%3],
		ThetaBps: [2]float64{0, 0.4e6}[(b>>4)%2],
		Skimming: b>>5&1 == 1,
	}
}

// stats builds a report with entries for registered and unregistered
// flows alike, some missing, some carrying only a channel hint.
func (r *opReader) stats() map[int]FlowStats {
	n := int(r.next() % 10)
	if n == 9 {
		return nil
	}
	stats := make(map[int]FlowStats, n)
	for i := 0; i < n; i++ {
		b := r.next()
		id := opIDs[b%16]
		if b&0x80 != 0 {
			id = 1000 + int(b%16) // never registered
		}
		switch k := r.next(); k % 4 {
		case 0:
			stats[id] = FlowStats{Bytes: int64(k) * 20_000, RBs: int64(r.next())*500 + 1}
		case 1:
			stats[id] = FlowStats{BytesPerRBHint: float64(k%64) + 0.5}
		case 2:
			stats[id] = FlowStats{Bytes: int64(k) * 10_000, RBs: 0, BytesPerRBHint: 3}
		default:
			stats[id] = FlowStats{}
		}
	}
	return stats
}

// errString renders an error for comparison ("" for nil).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// runControllerOps decodes data into a sequence of session-lifecycle
// ops on two cells and applies each to both the flow-table controller
// and the map-based reference, comparing the two after every op:
// assignments, errors, snapshots, admission verdicts, per-flow state
// and install records.
func runControllerOps(t *testing.T, data []byte) {
	r := &opReader{data: data}
	b := r.next()
	cfg := DefaultConfig()
	cfg.Delta = int(b % 6)
	cfg.UseRelaxation = b&0x08 != 0
	cfg.AdmissionControl = b&0x10 != 0
	cfg.DowngradeLadder = b&0x20 != 0
	if b&0x40 != 0 {
		cfg.Objective = "upf"
	}
	var refs [2]refCell
	var tabs [2]tableCell
	for i := range refs {
		tabs[i] = tableCell{ctrl: NewController(cfg)}
		refs[i] = refCell{ctrl: newRefController(tabs[i].ctrl.Config()), installed: make(map[int]refInstallation)}
	}

	for step := 0; r.more(); step++ {
		op := r.next()
		ci := int(op>>4) & 1
		ref, tab := &refs[ci], &tabs[ci]
		var what string
		switch op % 9 {
		case 0, 1: // register
			id, ladder, prefs := r.id(), r.ladder(), r.prefs()
			what = fmt.Sprintf("register %d %v %+v", id, ladder, prefs)
			compareErr(t, step, what, ref.ctrl.Register(id, ladder, prefs), tab.ctrl.Register(id, ladder, prefs))
		case 2: // unregister, as the server's close does
			id := r.id()
			what = fmt.Sprintf("unregister %d", id)
			ref.ctrl.Unregister(id)
			delete(ref.installed, id)
			tab.ctrl.Unregister(id)
		case 3: // re-register under a possibly different ladder
			id, ladder, prefs := r.id(), r.ladder(), r.prefs()
			what = fmt.Sprintf("re-register %d %v %+v", id, ladder, prefs)
			ref.ctrl.Unregister(id)
			delete(ref.installed, id)
			tab.ctrl.Unregister(id)
			compareErr(t, step, what, ref.ctrl.Register(id, ladder, prefs), tab.ctrl.Register(id, ladder, prefs))
		case 4: // set preferences
			id, prefs := r.id(), r.prefs()
			what = fmt.Sprintf("set-preferences %d %+v", id, prefs)
			compareErr(t, step, what, ref.ctrl.SetPreferences(id, prefs), tab.ctrl.SetPreferences(id, prefs))
		case 5, 6: // a BAI round and the server's install fold
			stats, nData, failMask := r.stats(), int(r.next()%5)-1, r.next()
			what = fmt.Sprintf("run-bai %v data=%d fail=%08b", stats, nData, failMask)
			want, werr := ref.ctrl.RunBAI(stats, nData)
			got, gerr := tab.ctrl.RunBAI(stats, nData)
			compareErr(t, step, what, werr, gerr)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("step %d (%s): assignments\n got  %v\n want %v", step, what, got, want)
			}
			if werr != nil {
				break
			}
			ref.baiSeq++
			tab.baiSeq++
			for i, a := range want {
				if failMask>>(i%8)&1 == 1 {
					if prev, ok := ref.installed[a.FlowID]; ok && a.RateBps < prev.assignment.RateBps {
						ref.installed[a.FlowID] = refInstallation{a, prev.seq}
					}
					continue
				}
				ref.installed[a.FlowID] = refInstallation{a, ref.baiSeq}
			}
			for i, a := range got {
				if failMask>>(i%8)&1 == 1 {
					if prev, seq, ok := tab.ctrl.Installed(a.FlowID); ok && a.RateBps < prev.RateBps {
						tab.ctrl.SetInstalled(a.FlowID, a, seq)
					}
					continue
				}
				tab.ctrl.SetInstalled(a.FlowID, a, tab.baiSeq)
			}
		case 7: // install-record update on its own
			id, level, seq := r.id(), int(r.next()%6), int64(r.next())
			a := Assignment{FlowID: id, Level: level, RateBps: float64(level+1) * 1e5}
			what = fmt.Sprintf("set-installed %d %+v %d", id, a, seq)
			if ref.ctrl.Registered(id) {
				ref.installed[id] = refInstallation{a, seq}
			}
			tab.ctrl.SetInstalled(id, a, seq)
		default: // handover to the other cell, or a snapshot and an admission probe
			id := r.id()
			if op&0x20 == 0 {
				what = fmt.Sprintf("snapshot %d / can-admit", id)
				ws, werr := ref.ctrl.Snapshot(id)
				gs, gerr := tab.ctrl.Snapshot(id)
				compareErr(t, step, what, werr, gerr)
				if !reflect.DeepEqual(ws, gs) {
					t.Fatalf("step %d (%s): snapshot %+v, want %+v", step, what, gs, ws)
				}
				ladder := r.ladder()
				if len(ladder) > 0 && ref.ctrl.CanAdmit(ladder) != tab.ctrl.CanAdmit(ladder) {
					t.Fatalf("step %d (%s): CanAdmit differs", step, what)
				}
				break
			}
			oref, otab := &refs[1-ci], &tabs[1-ci]
			what = fmt.Sprintf("handover %d from cell %d", id, ci)
			compareErr(t, step, what, refHandover(ref, oref, id), tableHandover(tab, otab, id))
		}
		compareCells(t, step, what, refs[:], tabs[:])
	}
}

// refHandover is the parent server's handover over the reference cells.
func refHandover(from, to *refCell, flowID int) error {
	snap, err := from.ctrl.Snapshot(flowID)
	if err != nil {
		return err
	}
	if err := to.ctrl.Register(flowID, snap.Ladder, snap.Preferences); err != nil {
		return err
	}
	if in, ok := from.installed[flowID]; ok {
		age := from.baiSeq - in.seq
		in.seq = max(to.baiSeq-age, 0)
		to.installed[flowID] = in
	}
	from.ctrl.Unregister(flowID)
	delete(from.installed, flowID)
	return nil
}

// tableHandover is the server's handover over the flow-table cells.
func tableHandover(from, to *tableCell, flowID int) error {
	a, seq, installed := from.ctrl.Installed(flowID)
	if err := from.ctrl.MoveTo(to.ctrl, flowID); err != nil {
		return err
	}
	if installed {
		age := from.baiSeq - seq
		to.ctrl.SetInstalled(flowID, a, max(to.baiSeq-age, 0))
	}
	return nil
}

func compareErr(t *testing.T, step int, what string, want, got error) {
	t.Helper()
	if errString(want) != errString(got) {
		t.Fatalf("step %d (%s): error %q, want %q", step, what, errString(got), errString(want))
	}
}

// compareCells checks every cell's whole per-flow state: the registered
// set, each flow's record and streak, install records, the table's
// order, and the floor demand.
func compareCells(t *testing.T, step int, what string, refs []refCell, tabs []tableCell) {
	t.Helper()
	for ci := range refs {
		ref, tab := &refs[ci], &tabs[ci]
		if ref.ctrl.NumFlows() != tab.ctrl.NumFlows() {
			t.Fatalf("step %d (%s) cell %d: %d flows, want %d", step, what, ci, tab.ctrl.NumFlows(), ref.ctrl.NumFlows())
		}
		for i := 1; i < len(tab.ctrl.rows); i++ {
			if tab.ctrl.rows[i-1].id >= tab.ctrl.rows[i].id {
				t.Fatalf("step %d (%s) cell %d: rows out of order at %d", step, what, ci, i)
			}
		}
		if n := cap(tab.ctrl.rows); n > len(tab.ctrl.rows) {
			if tail := tab.ctrl.rows[len(tab.ctrl.rows):n]; tail[0].ladder != nil {
				t.Fatalf("step %d (%s) cell %d: a removed row still holds its ladder", step, what, ci)
			}
		}
		for _, id := range append(opIDs[:], 1000) {
			f, ok := ref.ctrl.flows[id]
			row := tab.ctrl.row(id)
			if ok != (row != nil) || ok != tab.ctrl.Registered(id) {
				t.Fatalf("step %d (%s) cell %d: flow %d registered=%v, want %v", step, what, ci, id, row != nil, ok)
			}
			wa, wok := ref.installed[id]
			ga, gseq, gok := tab.ctrl.Installed(id)
			if wok != gok || wa.assignment != ga || wa.seq != gseq {
				t.Fatalf("step %d (%s) cell %d: flow %d install record %v %+v@%d, want %v %+v@%d",
					step, what, ci, id, gok, ga, gseq, wok, wa.assignment, wa.seq)
			}
			if !ok {
				continue
			}
			if !slices.Equal(f.ladder, row.ladder) || f.beta != row.beta || f.theta != row.theta ||
				f.maxBps != row.maxBps || f.skimming != row.skimming || f.level != row.level ||
				math.Float64bits(f.rbsPerByte) != math.Float64bits(row.rbsPerByte) {
				t.Fatalf("step %d (%s) cell %d: flow %d row %+v, want %+v", step, what, ci, id, *row, *f)
			}
			if streak := ref.ctrl.gate.streaks[id]; streak != row.streak {
				t.Fatalf("step %d (%s) cell %d: flow %d streak %d, want %d", step, what, ci, id, row.streak, streak)
			}
		}
		if ref.ctrl.shed != tab.ctrl.shed || ref.ctrl.calmStreak != tab.ctrl.calmStreak {
			t.Fatalf("step %d (%s) cell %d: shed %d/%d, want %d/%d", step, what, ci,
				tab.ctrl.shed, tab.ctrl.calmStreak, ref.ctrl.shed, ref.ctrl.calmStreak)
		}
		if w, g := ref.ctrl.FloorDemandRBs(), tab.ctrl.FloorDemandRBs(); math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("step %d (%s) cell %d: floor demand %v, want %v", step, what, ci, g, w)
		}
	}
}

// TestControllerMatchesReference drives the flow table and the map-based
// reference through seeded random op sequences.
func TestControllerMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRNG(seed)
		data := make([]byte, 300+rng.Intn(900))
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runControllerOps(t, data) })
	}
}

// FuzzControllerOps is the same comparison over arbitrary op bytes.
func FuzzControllerOps(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x01, 0x00, 0x00, 0x05, 0x03, 0x01, 0x02})
	f.Add([]byte{0x3c, 0x10, 0x0a, 0x01, 0x07, 0x16, 0x25, 0x02, 0x00, 0x08, 0x30, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		runControllerOps(t, data)
	})
}
