package lint_test

import (
	"go/types"
	"slices"
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

// TestLockRanksTable pins the real hierarchy: the two control-plane
// classes and the solver's scratch freelist, with distinct ranks in the
// documented order Server.mu > cellState.mu > scratchPool.mu, every
// entry documenting what it protects and naming a mutex that exists.
func TestLockRanksTable(t *testing.T) {
	want := []struct {
		typ, field string
	}{
		{"Server", "mu"},
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
	resolveLockRanks(t, lint.LockRanks)
}

// resolveLockRanks fails for a class whose mutex does not exist in the
// module: a type or package-level variable that is missing, a field
// that is missing, or one that is not a sync.Mutex or sync.RWMutex. The
// analyzer only ever matches ranks against the locks it meets, so
// without this a rank for a deleted lock stays green.
func resolveLockRanks(t *testing.T, ranks []lint.LockClass) {
	t.Helper()
	pkgs := loadModule(t)
	for _, c := range ranks {
		i := slices.IndexFunc(pkgs, func(p *lint.Package) bool { return p.Path == c.Pkg })
		if i < 0 {
			t.Errorf("%s: package %s not loaded", c, c.Pkg)
			continue
		}
		var mu types.Type
		if c.Type == "" {
			if v, ok := pkgs[i].Types.Scope().Lookup(c.Field).(*types.Var); ok {
				mu = v.Type()
			}
		} else if tn, ok := pkgs[i].Types.Scope().Lookup(c.Type).(*types.TypeName); ok {
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for j := 0; j < st.NumFields(); j++ {
					if st.Field(j).Name() == c.Field {
						mu = st.Field(j).Type()
					}
				}
			}
		}
		switch s := types.TypeString(mu, nil); {
		case mu == nil:
			t.Errorf("%s: no such mutex in %s", c, c.Pkg)
		case s != "sync.Mutex" && s != "sync.RWMutex":
			t.Errorf("%s is a %s, not a sync.Mutex or sync.RWMutex", c, s)
		}
	}
}
