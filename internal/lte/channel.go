package lte

import "fmt"

// Channel models the per-UE downlink link quality over time as an iTbs
// index per TTI. Implementations are driven by the eNodeB: Update is
// called once per TTI before any ITbs queries for that TTI.
type Channel interface {
	// Update advances the channel state to the given TTI.
	Update(tti int64)
	// ITbs returns the current iTbs index for the given UE.
	ITbs(ue int) int
	// NumUEs returns the number of UEs the channel models.
	NumUEs() int
}

// ChannelCatchUp is the optional fast-forward extension of Channel: a
// channel that implements it can advance across a span of TTIs during
// which nothing queried it, instead of being Updated once per TTI.
//
// CatchUp(fromTTI, toTTI) must leave the channel in a state
// byte-identical (including any RNG stream consumption) to calling
// Update(t) for every t in (fromTTI, toTTI) exclusive; the kernel then
// calls Update(toTTI) itself on the wake TTI. Channels whose Update is
// a pure function of the TTI index implement this as a no-op; stateful
// channels (e.g. the mobility random walk) replay their internal step
// boundaries. The simulation kernel only fast-forwards cells whose
// channel implements this interface.
type ChannelCatchUp interface {
	CatchUp(fromTTI, toTTI int64)
}

// StaticChannel gives every UE a fixed iTbs — the paper's static testbed
// scenario ("we set the iTbs value to 2").
type StaticChannel struct {
	perUE []int
}

var _ Channel = (*StaticChannel)(nil)

// NewStaticChannel builds a static channel from per-UE iTbs values.
func NewStaticChannel(perUE ...int) *StaticChannel {
	vals := make([]int, len(perUE))
	for i, v := range perUE {
		vals[i] = ClampITbs(v)
	}
	return &StaticChannel{perUE: vals}
}

// NewUniformStaticChannel builds a static channel with n UEs all at the
// same iTbs.
func NewUniformStaticChannel(n, iTbs int) *StaticChannel {
	vals := make([]int, n)
	for i := range vals {
		vals[i] = ClampITbs(iTbs)
	}
	return &StaticChannel{perUE: vals}
}

// Update implements Channel; static channels never change.
func (c *StaticChannel) Update(int64) {}

// CatchUp implements ChannelCatchUp; static channels never change.
func (c *StaticChannel) CatchUp(int64, int64) {}

// ITbs implements Channel.
func (c *StaticChannel) ITbs(ue int) int { return c.perUE[ue] }

// NumUEs implements Channel.
func (c *StaticChannel) NumUEs() int { return len(c.perUE) }

// CyclicChannel reproduces the paper's dynamic testbed scenario: the iTbs
// ramps from Min to Max over half a period and back down over the other
// half ("gradually increasing the iTbs from 1 to 12 for the first 2
// minutes, decreasing it back to 1 for the next 2 minutes"). Each UE may
// start the cycle at a different phase offset, modelling UE
// heterogeneity.
type CyclicChannel struct {
	Min, Max   int
	PeriodTTIs int64
	offsets    []int64
	current    []int
}

var _ Channel = (*CyclicChannel)(nil)

// NewCyclicChannel builds a cyclic channel for len(offsetTTIs) UEs. The
// period must be positive and Min <= Max.
func NewCyclicChannel(minITbs, maxITbs int, periodTTIs int64, offsetTTIs []int64) (*CyclicChannel, error) {
	if periodTTIs <= 0 {
		return nil, fmt.Errorf("lte: cyclic channel period must be positive, got %d", periodTTIs)
	}
	minITbs, maxITbs = ClampITbs(minITbs), ClampITbs(maxITbs)
	if minITbs > maxITbs {
		return nil, fmt.Errorf("lte: cyclic channel min %d > max %d", minITbs, maxITbs)
	}
	offs := make([]int64, len(offsetTTIs))
	copy(offs, offsetTTIs)
	c := &CyclicChannel{
		Min:        minITbs,
		Max:        maxITbs,
		PeriodTTIs: periodTTIs,
		offsets:    offs,
		current:    make([]int, len(offsetTTIs)),
	}
	c.Update(0)
	return c, nil
}

// Update implements Channel.
func (c *CyclicChannel) Update(tti int64) {
	for ue, off := range c.offsets {
		c.current[ue] = c.valueAt(tti + off)
	}
}

func (c *CyclicChannel) valueAt(tti int64) int {
	phase := tti % c.PeriodTTIs
	if phase < 0 {
		phase += c.PeriodTTIs
	}
	half := c.PeriodTTIs / 2
	span := float64(c.Max - c.Min)
	var frac float64
	if phase < half {
		frac = float64(phase) / float64(half)
	} else {
		frac = float64(c.PeriodTTIs-phase) / float64(c.PeriodTTIs-half)
	}
	return ClampITbs(c.Min + int(frac*span+0.5))
}

// CatchUp implements ChannelCatchUp: Update is a pure function of the
// TTI index, so skipped TTIs leave no residue — the wake-TTI Update
// recomputes everything.
func (c *CyclicChannel) CatchUp(int64, int64) {}

// ITbs implements Channel.
func (c *CyclicChannel) ITbs(ue int) int { return c.current[ue] }

// NumUEs implements Channel.
func (c *CyclicChannel) NumUEs() int { return len(c.current) }

// TraceChannel replays per-UE iTbs traces — the "trace based model" row
// of the paper's Table III. Each trace is sampled at a fixed step; the
// trace wraps around when the simulation outlives it.
type TraceChannel struct {
	traces   [][]int
	stepTTIs int64
	current  []int
}

var _ Channel = (*TraceChannel)(nil)

// NewTraceChannel builds a trace channel. Every trace must be non-empty
// and stepTTIs positive.
func NewTraceChannel(traces [][]int, stepTTIs int64) (*TraceChannel, error) {
	if stepTTIs <= 0 {
		return nil, fmt.Errorf("lte: trace step must be positive, got %d", stepTTIs)
	}
	cp := make([][]int, len(traces))
	for i, tr := range traces {
		if len(tr) == 0 {
			return nil, fmt.Errorf("lte: trace for UE %d is empty", i)
		}
		cp[i] = make([]int, len(tr))
		for j, v := range tr {
			cp[i][j] = ClampITbs(v)
		}
	}
	c := &TraceChannel{traces: cp, stepTTIs: stepTTIs, current: make([]int, len(cp))}
	c.Update(0)
	return c, nil
}

// Update implements Channel.
func (c *TraceChannel) Update(tti int64) {
	idx := tti / c.stepTTIs
	for ue, tr := range c.traces {
		c.current[ue] = tr[int(idx%int64(len(tr)))]
	}
}

// CatchUp implements ChannelCatchUp: trace playback is a pure function
// of the TTI index.
func (c *TraceChannel) CatchUp(int64, int64) {}

// ITbs implements Channel.
func (c *TraceChannel) ITbs(ue int) int { return c.current[ue] }

// NumUEs implements Channel.
func (c *TraceChannel) NumUEs() int { return len(c.traces) }
