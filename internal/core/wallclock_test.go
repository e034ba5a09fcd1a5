package core

import (
	"slices"
	"testing"
	"time"
)

// TestSetWallClockDrivesSolveTimes pins the wall-clock seam: solver
// latency is measured through the injected clock, so a fake that steps
// 5ms per reading must yield exactly 5ms per BAI in LastSolve.
func TestSetWallClockDrivesSolveTimes(t *testing.T) {
	c := controllerForTest(t, DefaultConfig(), 2)
	fake := time.Unix(1_000_000, 0)
	c.SetWallClock(func() time.Time {
		fake = fake.Add(5 * time.Millisecond)
		return fake
	})

	for i := 1; i <= 3; i++ {
		if _, err := c.RunBAI(map[int]FlowStats{}, 0); err != nil {
			t.Fatal(err)
		}
		// Each RunBAI reads the clock twice (start, end): one 5ms step.
		if n, d := c.LastSolve(); n != int64(i) || d != 5*time.Millisecond {
			t.Fatalf("solve %d: LastSolve = %d, %v through the fake clock, want %d, exactly 5ms", i, n, d, i)
		}
	}
}

// TestSetWallClockNilRestoresDefault: a nil injection must not leave
// the controller with a nil clock.
func TestSetWallClockNilRestoresDefault(t *testing.T) {
	c := controllerForTest(t, DefaultConfig(), 1)
	c.SetWallClock(nil)
	if _, err := c.RunBAI(map[int]FlowStats{}, 0); err != nil {
		t.Fatal(err)
	}
	if n, d := c.LastSolve(); n != 1 || d < 0 {
		t.Fatalf("LastSolve after nil restore: %d, %v", n, d)
	}
}

// TestAssignmentsIdenticalUnderAnyClock proves the property the
// determinism waiver in NewController claims: the wall clock is
// observational, so wildly different clocks cannot change a single
// assignment.
func TestAssignmentsIdenticalUnderAnyClock(t *testing.T) {
	run := func(clock func() time.Time) [][]Assignment {
		c := controllerForTest(t, DefaultConfig(), 3)
		if clock != nil {
			c.SetWallClock(clock)
		}
		stats := map[int]FlowStats{
			0: {Bytes: 1_000_000, RBs: 40_000},
			1: {Bytes: 500_000, RBs: 40_000},
			2: {Bytes: 250_000, RBs: 40_000},
		}
		var out [][]Assignment
		for bai := 0; bai < 10; bai++ {
			as, err := c.RunBAI(stats, 1)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, slices.Clone(as)) // as is the controller's buffer, overwritten next round
		}
		return out
	}

	fake := time.Unix(0, 0)
	jumpy := func() time.Time { fake = fake.Add(7 * time.Hour); return fake }

	real := run(nil)
	faked := run(jumpy)
	for i := range real {
		for j := range real[i] {
			if real[i][j] != faked[i][j] {
				t.Fatalf("BAI %d flow %d: assignment differs under fake clock: %+v vs %+v",
					i, j, real[i][j], faked[i][j])
			}
		}
	}
}
