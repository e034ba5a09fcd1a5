package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/obs"
)

// DefaultBytesPerRB is the radio-cost prior used for a flow that has not
// transmitted yet and for which no channel hint is available. It
// corresponds to a mid-range MCS; the first real BAI of traffic replaces
// it with the measured n_u/b_u.
const DefaultBytesPerRB = 10.0

// MaxRBsPerByte bounds the radio cost a report can set: a stats row (or
// hint) saying a byte took more RBs than the cell has in a TTI is not a
// measurement — 36.213's smallest transport block on one RB (iTbs 0)
// carries two bytes — and is dropped: the flow keeps its previous
// cost. Without the bound one such row (9e18 RBs for one byte) prices
// its flow's floor past the whole cell for hundreds of BAIs, and every
// neighbour is handed its lowest level.
const MaxRBsPerByte = lte.NumRB

// PeakCellRateBps is the most one cell carries: lte.NumRB RBs every TTI
// at lte.MaxITbs, 36 Mbps (lte.CellRateBps(lte.MaxITbs)). A ladder
// whose floor rung is above it asks for more than any cell can give, so
// Register refuses it: admitted, its floor would price the flow past
// the whole cell at every BAI, and every neighbour would be handed its
// lowest level.
const PeakCellRateBps = 36e6

// Config parameterises the FLARE controller. Defaults follow Table IV.
type Config struct {
	// Alpha is the data-vs-video priority (Table IV: 1.0).
	Alpha float64
	// Delta is the Algorithm 1 stability parameter (Table IV: 4).
	Delta int
	// Beta is the default per-flow video importance (Table IV: 10).
	Beta float64
	// ThetaBps is the default screen-size parameter (Table IV: 0.2 Mbps).
	ThetaBps float64
	// BAI is the bitrate assignment interval.
	BAI time.Duration
	// UseRelaxation selects the continuous-relaxation solver instead of
	// the exact DP (the Figure 8-9 configuration).
	UseRelaxation bool
	// StickinessBonus is the keep-previous-level utility bonus passed to
	// the solvers (see Problem.StickinessBonus). 0 falls back to the
	// default (0.2); negative disables.
	StickinessBonus float64
	// CapacityMargin scales the RB budget the optimiser may plan
	// against (N in Eq. 4). Planning to exactly 100% leaves the
	// assignment on the constraint boundary, where every upward
	// radio-cost fluctuation forces a drop; a margin absorbs estimation
	// noise, and the two-phase scheduler hands the reserve back to
	// whoever can use it. 0 falls back to the default (0.9).
	CapacityMargin float64
	// CostSmoothing is the EWMA weight applied to new n_u/b_u radio-cost
	// samples. HAS traffic is bursty at sub-segment timescales, so the
	// raw previous-BAI sample the paper's Eq. 4 uses is noisy on short
	// BAIs; smoothing keeps that noise from triggering the immediate
	// down-switches Algorithm 1 permits. 1 reproduces the paper's
	// raw-sample behaviour; 0 falls back to the default (0.3).
	CostSmoothing float64
	// Objective names the per-flow utility model: "" or "eq2" for the
	// paper's Eq. 2 utility, "upf" for utility-proportional fairness
	// (see ObjectiveByName). Unknown names fall back to the default.
	Objective string
	// AdmissionControl enables the saturation admission predicate: a
	// new session is admitted only while every already-registered flow
	// plus the candidate can hold its floor (lowest-ladder) level
	// within the BAI's RB budget. Off (the default), registration is
	// unconditional — the paper's behaviour.
	AdmissionControl bool
	// AdmissionQueue bounds the OneAPI server's deferred-admission
	// FIFO: sessions rejected by the predicate wait there and are
	// promoted in arrival order when capacity frees. 0 means the
	// default (8); negative disables queueing (reject outright).
	AdmissionQueue int
	// DowngradeLadder enables the overload shedding policy: when the
	// solved assignment saturates the cell the controller caps every
	// flow's ceiling one ladder step lower (stepwise, with hysteresis
	// on the release side) instead of letting radio-cost noise starve
	// flows into stalls, and restores the ceiling when load drops.
	DowngradeLadder bool
}

// Downgrade-ladder hysteresis: one shed step is taken when the solved
// video share exceeds shedHighShare (or the instance is infeasible),
// and released only after shedHoldBAIs consecutive BAIs below
// shedLowShare — so the ladder never oscillates on the noise that
// triggered it.
const (
	shedHighShare = 0.96
	shedLowShare  = 0.85
	shedHoldBAIs  = 4
)

// DefaultConfig returns the paper's Table IV parameters with a 1 s BAI.
// The paper does not state the BAI length, but Algorithm 1's up-switch
// gate needs delta*(L+1) consecutive BAIs per level: with delta=4 a
// multi-second BAI would make ladder climbs take most of a session,
// which contradicts the bitrate levels reached in Figures 6-8 and the
// gentle slope of the Figure 12 delta sweep. A 1 s BAI (the cadence of
// the testbed's Continuous GBR Updater statistics) is consistent with
// both.
func DefaultConfig() Config {
	return Config{
		Alpha:           1.0,
		Delta:           4,
		Beta:            10,
		ThetaBps:        0.2e6,
		BAI:             time.Second,
		CostSmoothing:   0.05,
		StickinessBonus: 0.2,
		CapacityMargin:  0.9,
	}
}

// Preferences are the optional client-supplied hints from the FLARE
// plugin (Section II-B: clients reveal only what they choose to).
type Preferences struct {
	// MaxBps caps the assigned bitrate (0 = none). Clients use it to
	// bound mobile-data cost or to refill a low buffer quickly.
	MaxBps float64 `json:"max_bps,omitempty"`
	// Beta overrides the default video importance (0 = default; at
	// most MaxBeta).
	Beta float64 `json:"beta,omitempty"`
	// ThetaBps overrides the default screen parameter (0 = default; at
	// most MaxThetaBps).
	ThetaBps float64 `json:"theta_bps,omitempty"`
	// Skimming marks a viewer scrubbing through the video (frequent
	// forward/backward clicks in a shared clickstream); the server then
	// pins the flow to its minimum bitrate, as Section II-B suggests,
	// instead of spending cell capacity on content that will be skipped.
	Skimming bool `json:"skimming,omitempty"`
}

// MaxBeta and MaxThetaBps bound what Preferences may ask: each at most
// 10^4 times its Table IV default (β 10, θ 0.2 Mbps). The rule: a
// flow's utility is β(1−θ/r), so within the bounds a client scales its
// utility at most 10^8 times a default flow's on the same ladder, and
// the solver's float64 sum of every flow's utility (~16 significant
// digits) keeps ~8 digits below the client's scale — enough that a
// default neighbour's rung-to-rung steps (~10^-2 of its utility on the
// fine ladder) stay ~10^5 units in the last place wide. Far past them
// (β 1e17 or θ 1e300, by ladder) those steps drop below the sum's
// resolution and the neighbour is left on its lowest levels.
const (
	MaxBeta     = 1e4 * 10
	MaxThetaBps = 1e4 * 0.2e6
)

// Validate refuses preferences beyond MaxBeta or MaxThetaBps.
func (p Preferences) Validate() error {
	if p.Beta > MaxBeta {
		return fmt.Errorf("core: preference beta %g above %g", p.Beta, MaxBeta)
	}
	if p.ThetaBps > MaxThetaBps {
		return fmt.Errorf("core: preference theta_bps %g above %g", p.ThetaBps, MaxThetaBps)
	}
	return nil
}

// FlowStats is the per-flow eNodeB report for one BAI: bytes transmitted
// (b_u), RBs assigned (n_u), and a bytes-per-RB hint from the UE's
// current MCS for flows that moved no traffic.
type FlowStats struct {
	Bytes          int64   `json:"bytes"`
	RBs            int64   `json:"rbs"`
	BytesPerRBHint float64 `json:"bytes_per_rb_hint,omitempty"`
}

// Assignment is one flow's BAI outcome: the level and bitrate the OneAPI
// server pushes to the plugin, and the GBR it installs via the PCEF.
type Assignment struct {
	FlowID  int     `json:"flow_id"`
	Level   int     `json:"level"`
	RateBps float64 `json:"rate_bps"`
}

// flowRow is one registered flow's row in the controller's flow table:
// everything the cell tracks per flow, held by value.
type flowRow struct {
	id         int
	ladder     has.Ladder
	beta       float64
	theta      float64
	maxBps     float64
	rbsPerByte float64 // EWMA radio cost
	level      int     // current assigned level, -1 before first BAI
	streak     int     // Algorithm 1's up-recommendation streak
	// installed is the assignment the OneAPI server last published for
	// the flow and installSeq the cell BAI sequence of its last
	// successful install; hasInstall is false before the first.
	installed  Assignment
	installSeq int64
	hasInstall bool
	skimming   bool
}

// effectiveMaxBps folds the skimming pin into the client cap.
func (f *flowRow) effectiveMaxBps() float64 {
	if f.skimming {
		return f.ladder.Min()
	}
	return f.maxBps
}

// prefs returns the flow's preferences as they stand, defaults resolved.
func (f *flowRow) prefs() Preferences {
	return Preferences{MaxBps: f.maxBps, Beta: f.beta, ThetaBps: f.theta, Skimming: f.skimming}
}

// Controller is the OneAPI server's per-cell decision engine: it tracks
// registered video sessions, consumes the eNodeB statistics reports, and
// runs the optimiser + Algorithm 1 once per BAI.
type Controller struct {
	cfg   Config
	obj   Objective
	exact ExactSolver
	relax *RelaxedSolver // built by the first relaxed solve
	// rows is the flow table, in ascending flow-ID order: the order
	// every per-flow pass uses, so float sums and outputs follow IDs.
	// Sessions come and go by inserting and removing rows in place, so
	// under churn the table's capacity is reused. Grow sizes it for a
	// group of sessions; otherwise the first Register sizes it for
	// minRows.
	rows []flowRow

	// Downgrade-ladder state (cfg.DowngradeLadder): shed is how many
	// ladder steps are currently shaved off every flow's ceiling, and
	// calmStreak counts consecutive BAIs below the release watermark.
	shed       int
	calmStreak int

	// solves counts the BAIs whose solve ran, and lastSolve is the most
	// recent one's wall time (see LastSolve).
	solves    int64
	lastSolve time.Duration

	// now supplies the wall clock for solver-latency measurement (the
	// Figure 9 numbers and the bai_solve DurNs field). It is injectable
	// (SetWallClock) so tests fake it: the reading is observational only,
	// and TestAssignmentsIdenticalUnderAnyClock holds that.
	now func() time.Time

	rec    *obs.Recorder // nil = telemetry disabled
	cellID int32
	baiSeq int64

	// Per-BAI buffers reused across RunBAI calls (the solvers never
	// retain the Problem, and a Controller's BAIs are serialised by its
	// caller): the optimisation instance, the solver's answer and the
	// assignments RunBAI returns.
	prob Problem
	sol  Solution
	out  []Assignment
}

// Normalized returns the configuration with each invalid field replaced
// by its default: the controller is long-lived and the defaults are
// always safe, so bad values (NaN among them) fall back rather than
// erroring. Normalizing
// twice changes nothing, so the server, its controllers and the driver's
// BAI all read one value.
func (cfg Config) Normalized() Config {
	def := DefaultConfig()
	if cfg.Alpha < 0 || math.IsNaN(cfg.Alpha) {
		cfg.Alpha = def.Alpha
	}
	if cfg.Beta <= 0 || math.IsNaN(cfg.Beta) {
		cfg.Beta = def.Beta
	}
	if cfg.ThetaBps <= 0 || math.IsNaN(cfg.ThetaBps) {
		cfg.ThetaBps = def.ThetaBps
	}
	if cfg.BAI <= 0 {
		cfg.BAI = def.BAI
	}
	if !(cfg.CostSmoothing > 0 && cfg.CostSmoothing <= 1) {
		cfg.CostSmoothing = def.CostSmoothing
	}
	if cfg.StickinessBonus == 0 || math.IsNaN(cfg.StickinessBonus) {
		cfg.StickinessBonus = def.StickinessBonus
	}
	if !(cfg.CapacityMargin > 0 && cfg.CapacityMargin <= 1) {
		cfg.CapacityMargin = def.CapacityMargin
	}
	return cfg
}

// NewController builds a controller on the normalized configuration.
func NewController(cfg Config) *Controller {
	cfg = cfg.Normalized()
	obj, _ := ObjectiveByName(cfg.Objective)
	return &Controller{
		cfg:   cfg,
		obj:   obj,
		exact: *NewExactSolver(),
		now:   time.Now,
	}
}

// SetWallClock replaces the wall-clock source used to time BAI solves
// (nil restores time.Now). Latency measurement is the only consumer:
// faking the clock cannot change any assignment.
func (c *Controller) SetWallClock(now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	c.now = now
}

// SetRecorder attaches a telemetry recorder (nil disables recording)
// and names the cell this controller serves in emitted events.
func (c *Controller) SetRecorder(rec *obs.Recorder, cellID int) {
	c.rec = rec
	c.cellID = int32(cellID)
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// BAI returns the bitrate assignment interval.
func (c *Controller) BAI() time.Duration { return c.cfg.BAI }

// Register admits a video session: the plugin sends the flow's ladder
// (extracted from the MPD, stripped of identifying metadata) and its
// optional preferences.
//
// The controller keeps the ladder it is handed, without copying it, and
// never writes to it; from then on the caller must not write to it
// either. Many sessions may share one ladder, so a ladder that is the
// very slice a neighbouring row holds — the next session of a group
// streaming one presentation — was checked when that row registered and
// is not checked again. Snapshot hands out a copy.
//
// A flow that already has a session is refused with an error wrapping
// ErrRegistered, so a caller that re-opens idempotently learns it from
// the one search Register makes.
func (c *Controller) Register(flowID int, ladder has.Ladder, prefs Preferences) error {
	i, exists := c.find(flowID)
	if !c.neighbourHolds(i, ladder) {
		if err := ladder.Validate(); err != nil {
			return fmt.Errorf("core: register flow %d: %w", flowID, err)
		}
		if len(ladder) > MaxLevels {
			return fmt.Errorf("core: register flow %d: ladder of %d levels, more than %d", flowID, len(ladder), MaxLevels)
		}
		if ladder[0] > PeakCellRateBps {
			return fmt.Errorf("core: register flow %d: floor rung %g bps is above the peak cell rate (%g bps)", flowID, ladder[0], PeakCellRateBps)
		}
	}
	if exists {
		return fmt.Errorf("core: flow %d %w", flowID, ErrRegistered)
	}
	f := flowRow{
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
	if c.rows == nil {
		c.rows = make([]flowRow, 0, minRows)
	}
	c.rows = append(c.rows, flowRow{})
	copy(c.rows[i+1:], c.rows[i:])
	c.rows[i] = f
	return nil
}

// ErrRegistered is wrapped by Register's refusal of a flow that is
// already registered.
var ErrRegistered = errors.New("already registered")

// Grow makes room for n more rows, so the next n Registers do not
// regrow the flow table: a caller that expects a group of sessions
// sizes the table for it once. Each round's buffers follow the table's
// capacity (RunBAI).
func (c *Controller) Grow(n int) {
	c.rows = slices.Grow(c.rows, n)
}

// minRows is the flow table's first capacity: a cell of a few sessions
// never regrows it, and a larger one doubles from here rather than from
// one. Not more: a server holds hundreds of small cells, and their spare
// rows would add up.
const minRows = 8

// find returns the index of flowID's row and whether it is registered;
// when it is not, the index is where its row would be inserted.
func (c *Controller) find(flowID int) (int, bool) {
	lo, hi := 0, len(c.rows)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.rows[m].id < flowID {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(c.rows) && c.rows[lo].id == flowID
}

// neighbourHolds reports whether the row before index i, or the row at
// it, holds ladder itself: the same backing array and length.
func (c *Controller) neighbourHolds(i int, ladder has.Ladder) bool {
	if len(ladder) == 0 {
		return false
	}
	for j := max(i-1, 0); j <= i && j < len(c.rows); j++ {
		if l := c.rows[j].ladder; len(l) == len(ladder) && &l[0] == &ladder[0] {
			return true
		}
	}
	return false
}

// row returns flowID's row, or nil when the flow is not registered. The
// pointer is good until the next Register or Unregister.
func (c *Controller) row(flowID int) *flowRow {
	if i, ok := c.find(flowID); ok {
		return &c.rows[i]
	}
	return nil
}

// Registered reports whether a flow has a session at this controller —
// the existence probe, costing neither Snapshot's ladder copy nor its
// error value on a miss.
func (c *Controller) Registered(flowID int) bool {
	_, ok := c.find(flowID)
	return ok
}

// SessionSnapshot is a registered flow's portable state, used for
// inter-cell handover.
type SessionSnapshot struct {
	Ladder      has.Ladder  `json:"ladder"`
	Preferences Preferences `json:"preferences"`
}

// Snapshot returns a flow's portable session state.
func (c *Controller) Snapshot(flowID int) (SessionSnapshot, error) {
	f := c.row(flowID)
	if f == nil {
		return SessionSnapshot{}, fmt.Errorf("core: flow %d not registered", flowID)
	}
	return SessionSnapshot{Ladder: f.ladder.Clone(), Preferences: f.prefs()}, nil
}

// Unregister removes a departed session.
func (c *Controller) Unregister(flowID int) {
	i, ok := c.find(flowID)
	if !ok {
		return
	}
	n := len(c.rows) - 1
	copy(c.rows[i:], c.rows[i+1:])
	c.rows[n] = flowRow{} // drop the ladder reference
	c.rows = c.rows[:n]
}

// MoveTo hands a session over to dst: the flow is registered there with
// its ladder (shared, as Register keeps it) and preferences, exactly as
// Register with its Snapshot would, and then unregistered here. Nothing
// else moves — radio cost, level, streak and install record are this
// cell's — so the two halves copy no ladder and allocate nothing while
// both tables have room. A flow not registered here, or already
// registered at dst, is an error and changes nothing.
func (c *Controller) MoveTo(dst *Controller, flowID int) error {
	f := c.row(flowID)
	if f == nil {
		return fmt.Errorf("core: flow %d not registered", flowID)
	}
	if err := dst.Register(flowID, f.ladder, f.prefs()); err != nil {
		return err
	}
	c.Unregister(flowID)
	return nil
}

// NumFlows returns the number of registered video sessions.
func (c *Controller) NumFlows() int { return len(c.rows) }

// SetPreferences updates a registered flow's client preferences.
func (c *Controller) SetPreferences(flowID int, prefs Preferences) error {
	f := c.row(flowID)
	if f == nil {
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

// Installed returns the assignment last recorded for a flow with
// SetInstalled and the install sequence recorded with it. ok is false
// when the flow is not registered or has no record yet: a flow's record
// goes with its session, so a re-registered flow starts without one.
func (c *Controller) Installed(flowID int) (a Assignment, seq int64, ok bool) {
	f := c.row(flowID)
	if f == nil || !f.hasInstall {
		return Assignment{}, 0, false
	}
	return f.installed, f.installSeq, true
}

// SetInstalled records a flow's published assignment and its install
// sequence (the OneAPI server's bookkeeping, which the controller only
// stores). It is a no-op for a flow that is not registered.
func (c *Controller) SetInstalled(flowID int, a Assignment, seq int64) {
	if f := c.row(flowID); f != nil {
		f.installed, f.installSeq, f.hasInstall = a, seq, true
	}
}

// LastSolve returns how many BAIs this controller has solved and the
// wall-clock duration of the most recent solve — the Figure 9
// measurement. The controller keeps no history: a caller that wants one
// reads this after each RunBAI and keeps what it reads.
func (c *Controller) LastSolve() (n int64, d time.Duration) {
	return c.solves, c.lastSolve
}

// RunBAI executes one bitrate assignment interval: update radio costs
// from the statistics report, solve Eq. 3-4 (exactly or relaxed), apply
// the Algorithm 1 gate, and return the assignments in flow-ID order.
// numDataFlows is the PCRF's count of concurrent non-video flows.
//
// The round runs on buffers the controller owns, and the returned slice
// is one of them: it is valid until this controller's next RunBAI, which
// overwrites it. A caller that keeps assignments longer copies them
// (oneapi.Server does, into its caller's StatsResponse).
func (c *Controller) RunBAI(stats map[int]FlowStats, numDataFlows int) ([]Assignment, error) {
	if numDataFlows < 0 {
		return nil, fmt.Errorf("core: negative data flow count %d", numDataFlows)
	}
	n := len(c.rows)
	if n == 0 {
		return nil, nil
	}

	// Refresh radio costs from the report (EWMA-smoothed; see Config).
	w := c.cfg.CostSmoothing
	for i := range c.rows {
		f := &c.rows[i]
		s, ok := stats[f.id]
		var sample float64
		switch {
		case ok && s.Bytes > 0 && s.RBs > 0:
			sample = float64(s.RBs) / float64(s.Bytes)
		case ok && s.BytesPerRBHint > 0:
			sample = 1 / s.BytesPerRBHint
		default:
			continue
		}
		if sample > MaxRBsPerByte {
			continue
		}
		f.rbsPerByte += w * (sample - f.rbsPerByte)
	}

	// The round's buffers are sized from the flow table's capacity, not
	// from the live count, so a cell whose sessions arrive one by one
	// sizes them once instead of at every new peak.
	prob := &c.prob
	if cap(prob.Flows) < n {
		prob.Flows = make([]VideoFlow, cap(c.rows))
	}
	*prob = Problem{
		Flows:           prob.Flows[:n],
		Objective:       c.obj,
		NumDataFlows:    numDataFlows,
		Alpha:           c.cfg.Alpha,
		TotalRBs:        c.budgetRBs(),
		BAISeconds:      c.cfg.BAI.Seconds(),
		StickinessBonus: c.cfg.StickinessBonus,
	}
	for i := range c.rows {
		f := &c.rows[i]
		prob.Flows[i] = VideoFlow{
			ID:         f.id,
			Ladder:     f.ladder,
			Beta:       f.beta,
			ThetaBps:   f.theta,
			PrevLevel:  f.level,
			RBsPerByte: f.rbsPerByte,
			MaxBps:     c.shedCap(f),
		}
	}

	start := c.now()
	sol := &c.sol
	var err error
	if c.cfg.UseRelaxation {
		if c.relax == nil {
			c.relax = NewRelaxedSolver()
		}
		*sol, err = c.relax.Solve(prob)
	} else {
		err = c.exact.SolveInto(prob, sol)
	}
	elapsed := c.now().Sub(start)
	c.solves++
	c.lastSolve = elapsed
	if err != nil {
		return nil, fmt.Errorf("core: BAI solve: %w", err)
	}
	c.baiSeq++
	c.rec.Emit(obs.BAISolve(c.cellID, c.baiSeq, int32(numDataFlows),
		int64(prob.TotalRBs), sol.Objective, elapsed.Nanoseconds()))

	if c.cfg.DowngradeLadder {
		maxShed := 0
		for i := range prob.Flows {
			if l := prob.Flows[i].Ladder.Len() - 1; l > maxShed {
				maxShed = l
			}
		}
		c.updateShed(*sol, maxShed)
	}

	if cap(c.out) < n {
		c.out = make([]Assignment, cap(c.rows))
	}
	out := c.out[:n]
	for i := range c.rows {
		f := &c.rows[i]
		final, streak, need := GateStep(c.cfg.Delta, f.streak, f.level, sol.Levels[i])
		if c.rec.Enabled() {
			s := stats[f.id]
			c.rec.Emit(obs.Clamp(c.cellID, int32(f.id), c.baiSeq,
				int32(sol.Levels[i]), int32(final), int32(f.level),
				int32(streak), int32(need), s.Bytes, s.RBs, f.ladder.Rate(final)))
		}
		f.level, f.streak = final, streak
		out[i] = Assignment{
			FlowID:  f.id,
			Level:   final,
			RateBps: f.ladder.Rate(final),
		}
	}
	return out, nil
}
