package testbed

import (
	"sync"

	"github.com/flare-sim/flare/internal/lte"
)

// OverrideChannel is the testbed's iTbs Override Module: it lets the
// operator force each UE's MCS at runtime — the mechanism the paper uses
// to "emulate time-varying link bandwidth by changing the index of the
// Transport Block Size". Safe for concurrent use.
type OverrideChannel struct {
	mu     sync.Mutex
	values []int
}

var _ lte.Channel = (*OverrideChannel)(nil)

// NewOverrideChannel creates an override channel with every UE at the
// given initial iTbs.
func NewOverrideChannel(numUEs, initialITbs int) *OverrideChannel {
	vals := make([]int, numUEs)
	for i := range vals {
		vals[i] = lte.ClampITbs(initialITbs)
	}
	return &OverrideChannel{values: vals}
}

// SetITbs forces a UE's MCS index.
func (c *OverrideChannel) SetITbs(ue, iTbs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ue >= 0 && ue < len(c.values) {
		c.values[ue] = lte.ClampITbs(iTbs)
	}
}

// Update implements lte.Channel: values change only through SetITbs.
func (c *OverrideChannel) Update(int64) {}

// ITbs implements lte.Channel.
func (c *OverrideChannel) ITbs(ue int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.values[ue]
}

// NumUEs implements lte.Channel.
func (c *OverrideChannel) NumUEs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.values)
}
