// Package stalefix exercises the directive audit: a //flare:allow that
// suppresses a live finding is consumed and healthy; one that
// suppresses nothing (the code it excused was deleted or moved) is
// itself a finding, so waivers cannot silently outlive their reasons;
// and a //flare: comment other than allow is an unknown directive.
package stalefix

// consumed: the waiver excuses the map-range finding below it.
func withWaiver(m map[string]int) int {
	n := 0
	//flare:allow fixture: a count is the same in every iteration order
	for range m {
		n++
	}
	return n
}

// orphaned: nothing is reported at the line below this waiver.
func calm() int {
	/* want `stale //flare:allow \(fixture: this excused a finding that no longer exists\): no finding is suppressed here` */ //flare:allow fixture: this excused a finding that no longer exists
	return 1
}

// unknown: a marker for a check the suite does not run promises a
// guarantee nothing enforces.
func marked() {
	/* want `unknown directive //flare:noalloc: //flare:allow <reason> is the only flare directive` */ //flare:noalloc
}

var (
	_ = withWaiver
	_ = calm
	_ = marked
)
