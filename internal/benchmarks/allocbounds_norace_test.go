//go:build !race

package benchmarks

// TestEngineRunAllocs's bounds in a plain build; allocbounds_race_test.go
// holds the -race build's. Each sits about 10 % above the most its
// build measured over seeds 1–3: 54 on the busy cell, 54 on the churn
// cell.
const (
	engineTickAllocs  = 60
	engineChurnAllocs = 60
)
