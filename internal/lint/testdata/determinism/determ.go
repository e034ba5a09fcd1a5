// Package determfix exercises the determinism analyzer: the forbidden
// constructs (map range, wall clock, global rand), the reasoned
// //flare:allow waiver, the rule that a bare (reasonless) allow
// suppresses nothing and is itself a finding, and the concurrency the
// analyzer leaves to the lockstep and -race suites.
package determfix

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// mapRange feeds unordered iteration straight into its result.
func mapRange(m map[string]int) int {
	sum := 0
	for _, v := range m { // want `range over map`
		sum += v
	}
	return sum
}

// sortedKeys is the canonical safe pattern: collect, then sort. The
// reasoned allow on the line above the range suppresses the finding.
func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	//flare:allow fixture: keys are sorted on the next line, iteration order never escapes
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// bareAllow shows that an allow without a reason is rejected AND does
// not suppress the finding below it.
func bareAllow(m map[string]int) {
	/* want "flare:allow requires a reason" */ //flare:allow
	for range m { // want `range over map`
	}
}

// wallClock reads real time twice.
func wallClock() time.Duration {
	start := time.Now()      // want `time.Now reads the wall clock`
	return time.Since(start) // want `time.Since reads the wall clock`
}

//flare:allow fixture: observational only, the value never reaches sim state
var bootTime = time.Now()

// globalRand draws from the shared source.
func globalRand() int {
	return rand.Intn(6) // want `global math/rand.Intn`
}

// seededRand owns its generator: constructors and methods are fine.
func seededRand() float64 {
	r := rand.New(rand.NewSource(42))
	return r.Float64()
}

// concurrency is not the analyzer's business: go statements,
// sync/atomic and sync.Map produce no finding. Whether their results
// are folded in a fixed order is held by the lockstep and -race suites.
func concurrency(ch chan int, word *int64, m *sync.Map) {
	go func() { ch <- 1 }()
	atomic.AddInt64(word, 1)
	m.Range(func(k, v any) bool { return true })
}

var (
	_ = mapRange
	_ = sortedKeys
	_ = bareAllow
	_ = wallClock
	_ = bootTime
	_ = globalRand
	_ = seededRand
	_ = concurrency
)
