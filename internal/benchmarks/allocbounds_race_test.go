//go:build race

package benchmarks

// TestEngineRunAllocs's bounds in a -race build, which counts a few
// objects more than a plain one; allocbounds_norace_test.go holds the
// plain build's. Each sits about 10 % above the most its build measured
// over seeds 1–3: 58 on the busy cell, 56 on the churn cell.
const (
	engineTickAllocs  = 64
	engineChurnAllocs = 62
)
