package lte

import "testing"

// AttachTwin puts the reference twin of aging_test.go in front of e's
// channel and scheduler, for the package's external tests. The function
// it returns fails t for every TTI whose grants differed from the
// reference's so far and returns the number of TTIs both scheduled.
func AttachTwin(e *ENodeB) func(t testing.TB) int {
	tw := attachTwin(e)
	return func(t testing.TB) int {
		t.Helper()
		tw.diffGrants(t, "cell")
		return tw.scheduled
	}
}
