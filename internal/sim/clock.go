package sim

import (
	"fmt"
	"time"
)

// TTI is the LTE transmission time interval: the fundamental tick of the
// simulated cell.
const TTI = time.Millisecond

// Clock tracks simulated time at TTI granularity. The zero value is a
// clock at time zero.
type Clock struct {
	tti int64
}

// Now returns the current simulated time.
func (c *Clock) Now() time.Duration {
	return time.Duration(c.tti) * TTI
}

// TTI returns the index of the current TTI (1 TTI = 1 ms).
func (c *Clock) TTI() int64 {
	return c.tti
}

// Advance moves the clock forward by one TTI and returns the new index.
func (c *Clock) Advance() int64 {
	c.tti++
	return c.tti
}

// AdvanceTo jumps the clock forward to the given TTI — the fast-forward
// primitive. Moving backwards is a programming error and panics, since a
// retreating clock would silently corrupt every lazily-advanced
// component (players, transport, bearers).
func (c *Clock) AdvanceTo(tti int64) int64 {
	if tti < c.tti {
		panic(fmt.Sprintf("sim: clock cannot move backwards (at %d, asked for %d)", c.tti, tti))
	}
	c.tti = tti
	return c.tti
}

// Seconds returns the current simulated time in seconds.
func (c *Clock) Seconds() float64 {
	return float64(c.tti) / 1000.0
}

// String implements fmt.Stringer for debug logs.
func (c *Clock) String() string {
	return fmt.Sprintf("t=%.3fs", c.Seconds())
}

// DurationToTTIs converts a duration to a whole number of TTIs, rounding
// down. Durations below one TTI yield zero.
func DurationToTTIs(d time.Duration) int64 {
	return int64(d / TTI)
}
