// Package sim provides the deterministic simulation kernel shared by all
// FLARE substrates: a TTI-granular clock, an event queue, and seedable
// random-number streams.
//
// Determinism is a first-class requirement: every experiment in the paper
// reproduction is driven by an explicit seed so that results, CDFs, and
// regression tests are bit-stable across runs and platforms. The kernel
// therefore does not use math/rand's global state.
package sim

import "math"

// RNG is a small, fast, deterministic random number generator
// (splitmix64). It is not safe for concurrent use; derive independent
// streams with Split when multiple entities need uncorrelated randomness.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the
// same seed produce identical sequences.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives a new, statistically independent generator from r.
// The derived stream is a function of r's current state, so splitting is
// itself deterministic.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed value with the given mean and
// standard deviation, using the Box-Muller transform.
func (r *RNG) Norm(mean, stdev float64) float64 {
	// Guard against log(0): Float64 can return exactly 0.
	u1 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stdev*z
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	if u < 1e-300 {
		u = 1e-300
	}
	return -mean * math.Log(u)
}
