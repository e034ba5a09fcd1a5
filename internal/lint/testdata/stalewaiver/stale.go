// Package stalefix exercises the directive audit: a //flare:allow that
// suppresses a live finding is consumed and healthy; one that
// suppresses nothing (the code it excused was deleted or moved) is
// itself a finding, so waivers cannot silently outlive their reasons;
// and a //flare: comment other than allow is an unknown directive.
package stalefix

import "sync"

// Cell's mu is the fixture's one ranked lock (see stalewaiver_test.go).
type Cell struct{ mu sync.Mutex }

// consumed: the waiver excuses the equal-rank acquisition below it.
func pair(a, b *Cell) {
	a.mu.Lock()
	defer a.mu.Unlock()
	//flare:allow fixture: every caller passes the two cells in one global order
	b.mu.Lock()
	defer b.mu.Unlock()
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
	_ = pair
	_ = calm
	_ = marked
)
