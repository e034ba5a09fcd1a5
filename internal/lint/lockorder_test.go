package lint_test

import (
	"testing"

	"github.com/flare-sim/flare/internal/lint"
	"github.com/flare-sim/flare/internal/lint/linttest"
)

// TestLockOrder runs the analyzer under a fixture-local rank table
// shaped like the real one (lockranks.go): a package-level registry
// mutex above a Server/Shard/Cell struct hierarchy. The fixture covers
// descending acquisition, direct and transitive inversions, the
// equal-rank Handover shape and its global-order waiver, deferred
// unlocks, goroutine-fresh held sets, and closure inheritance.
func TestLockOrder(t *testing.T) {
	ranks := []lint.LockClass{
		{Pkg: "fixture/lockfix", Field: "regMu", Rank: 50,
			Doc: "fixture: package-level registry lock, outermost"},
		{Pkg: "fixture/lockfix", Type: "Server", Field: "optMu", Rank: 30,
			Doc: "fixture: server-wide optimizer lock"},
		{Pkg: "fixture/lockfix", Type: "Shard", Field: "mu", Rank: 20,
			Doc: "fixture: one shard's index lock"},
		{Pkg: "fixture/lockfix", Type: "Cell", Field: "mu", Rank: 10,
			Doc: "fixture: one cell's state lock, innermost"},
	}
	linttest.Run(t, "testdata/lockorder", "fixture/lockfix", lint.NewLockOrder(ranks))
}

// TestLockRanksTable pins the real hierarchy: the three control-plane
// classes and the solver's scratch freelist exist, with distinct ranks
// in the documented order optMu > shard.mu > cellState.mu >
// scratchPool.mu, and every entry documents what it protects.
func TestLockRanksTable(t *testing.T) {
	want := []struct {
		typ, field string
	}{
		{"Server", "optMu"},
		{"shard", "mu"},
		{"cellState", "mu"},
		{"scratchPool", "mu"},
	}
	if len(lint.LockRanks) != len(want) {
		t.Fatalf("LockRanks has %d classes, want %d", len(lint.LockRanks), len(want))
	}
	prev := int(^uint(0) >> 1) // MaxInt
	for i, w := range want {
		c := lint.LockRanks[i]
		if c.Type != w.typ || c.Field != w.field {
			t.Errorf("LockRanks[%d] = %s, want %s.%s", i, c, w.typ, w.field)
		}
		if c.Rank >= prev {
			t.Errorf("LockRanks[%d] (%s) rank %d not strictly below its predecessor %d", i, c, c.Rank, prev)
		}
		if c.Doc == "" {
			t.Errorf("LockRanks[%d] (%s) has no Doc", i, c)
		}
		prev = c.Rank
	}
}
