// Package flaresuite is the one experiment runner: one ordered table of
// named ScenarioSpecs (Scenarios), a hivesim-style T API for scenario
// bodies, and a runner that validates a table, then executes the
// selected specs in sequence, each point's seeded runs fanned out
// across cores by one worker pool with deterministic, run-ordered
// result collection.
//
// Two kinds of spec share the table. The report specs reproduce the
// paper's evaluation (Tables I-II, Figures 4-12) and its extensions
// (ext-coexist, ext-abr, ext-faults, ext-saturation): each body builds a
// Report, written as <id>.txt plus <id>.csv, which is the results/ file
// format. The matrix-native specs (flash-crowd, het-ladders,
// churn-soak) exist only as points in the axis space (channel x churn x
// faults x mix x ladder x cells): axes compile into cellsim.Config via
// BuildConfig, and a -matrix run expands their cross-products.
//
// Every run emits a machine-readable summary.json that records the
// scale, duration factor and run count it was taken at; apart from
// fig9's wall-clock solve times its bytes do not depend on the core
// count.
//
// Layering: flaresuite drives the engine (cellsim) and never touches
// the OneAPI wire internals (oneapi, loadgen) — internal/lint's
// TestLayering holds it.
package flaresuite

import "time"

// Scale sizes a run: durations and seeded repetitions per data point.
type Scale struct {
	// DurationFactor multiplies scenario durations (1 = paper scale).
	DurationFactor float64
	// Runs is the number of seeded repetitions per data point (the
	// paper uses 20).
	Runs int
}

// QuickScale is the test/CI sizing (short durations, few runs).
func QuickScale() Scale { return Scale{DurationFactor: 0.1, Runs: 3} }

// FullScale is the paper-scale sizing: the paper's durations and 20
// runs per point.
func FullScale() Scale { return Scale{DurationFactor: 1, Runs: 20} }

// ParseScale resolves the CLI scale names.
func ParseScale(name string) (Scale, bool) {
	switch name {
	case "quick", "":
		return QuickScale(), true
	case "full":
		return FullScale(), true
	}
	return Scale{}, false
}

func (s Scale) normalized() Scale {
	if s.DurationFactor <= 0 {
		s.DurationFactor = 1
	}
	if s.Runs <= 0 {
		s.Runs = 1
	}
	return s
}

// suiteSeed is the base seed for every run: runs are deterministic
// while each (run, cell) pair gets an independent stream.
const suiteSeed uint64 = 0x5eed_f1a2e

// runSeed derives the seed for one (run, cell) pair.
func runSeed(run, cell int) uint64 {
	return suiteSeed + uint64(run)*0x9e37 + uint64(cell)*0x51de
}

// scaled shrinks a scenario duration by the scale's factor, clamped so
// even tiny factors leave a run long enough to exercise the control
// loop.
func scaled(d time.Duration, s Scale) time.Duration {
	out := time.Duration(float64(d) * s.normalized().DurationFactor)
	if out < 30*time.Second {
		out = 30 * time.Second
	}
	return out
}
