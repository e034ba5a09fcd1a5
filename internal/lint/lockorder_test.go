package lint

import (
	"fmt"
	"go/types"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// module is the whole module, type-checked once for the tests that read
// it (TestLockOrder, TestTreeClean, TestLockRanksTable): the load is most of their
// time.
var module struct {
	once sync.Once
	pkgs []*checkedPackage
	err  error
}

func modulePackages(t *testing.T) []*checkedPackage {
	t.Helper()
	module.once.Do(func() { module.pkgs, module.err = loadModule("../..") })
	if module.err != nil {
		t.Fatalf("load module: %v", module.err)
	}
	return module.pkgs
}

// TestLockOrder holds the whole module to lockRanks: every acquisition
// against the hierarchy fails unless a lockExceptions row excuses it,
// and a row that excuses nothing fails too.
func TestLockOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is seconds of work; skipped in -short")
	}
	pkgs := modulePackages(t)
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	var findings []lockFinding
	for _, pkg := range pkgs {
		findings = append(findings, lockOrder(pkg, lockRanks)...)
	}
	uncovered, stale := excuse(findings, lockExceptions)
	for _, f := range uncovered {
		t.Error(f)
	}
	for _, e := range stale {
		t.Errorf("lock-order exception %s in %s excuses no finding; delete the row or restore the code it was written for", e.Func, e.Pkg)
	}
}

// TestTreeClean holds the module's shipped code free of `//flare:`
// directive comments. Exceptions are lockExceptions rows now, so such a
// comment would read as a waiver and excuse nothing.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is seconds of work; skipped in -short")
	}
	for _, pkg := range modulePackages(t) {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, "//flare:") {
						t.Errorf("%s: %s: a comment waives nothing; add a lockExceptions row", pkg.Fset.Position(c.Pos()), c.Text)
					}
				}
			}
		}
	}
}

// TestLockOrderFixture runs the walk under a fixture-local rank table
// shaped like the real one (lockranks.go): a package-level registry
// mutex above a Server/Shard/Cell struct hierarchy. The fixture covers
// descending acquisition, direct and transitive inversions, the
// equal-rank Handover shape and its global-order exception, deferred
// unlocks, goroutine-fresh held sets, and closure inheritance. Each
// `// want` comment is a regexp for a finding on its line; a second
// exception row, for a function with no finding, must come back stale.
func TestLockOrderFixture(t *testing.T) {
	ranks := []lockClass{
		{Pkg: "fixture/lockfix", Field: "regMu", Rank: 50,
			Doc: "fixture: package-level registry lock, outermost"},
		{Pkg: "fixture/lockfix", Type: "Server", Field: "optMu", Rank: 30,
			Doc: "fixture: server-wide optimizer lock"},
		{Pkg: "fixture/lockfix", Type: "Shard", Field: "mu", Rank: 20,
			Doc: "fixture: one shard's index lock"},
		{Pkg: "fixture/lockfix", Type: "Cell", Field: "mu", Rank: 10,
			Doc: "fixture: one cell's state lock, innermost"},
	}
	exceptions := []lockException{
		{Pkg: "fixture/lockfix", Func: "handoverOrdered", Class: "lockfix.Cell.mu",
			Reason: "fixture: callers pass cells in global ID order"},
		{Pkg: "fixture/lockfix", Func: "releasedEarly", Class: "lockfix.Cell.mu",
			Reason: "fixture: excuses nothing"},
	}
	pkg, err := loadDir("testdata/lockorder", "fixture/lockfix")
	if err != nil {
		t.Fatal(err)
	}
	uncovered, stale := excuse(lockOrder(pkg, ranks), exceptions)
	if len(stale) != 1 || stale[0].Func != "releasedEarly" {
		t.Errorf("stale exceptions = %+v, want the releasedEarly row alone", stale)
	}

	wants := fixtureWants(t, pkg)
	for _, f := range uncovered {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		i := slices.IndexFunc(wants[key], func(re *regexp.Regexp) bool { return re.MatchString(f.Msg) })
		if i < 0 {
			t.Errorf("unexpected finding:\n  %s", f)
			continue
		}
		wants[key] = slices.Delete(wants[key], i, i+1)
	}
	for key, res := range wants {
		for _, re := range res {
			t.Errorf("%s: no finding matching %q", key, re)
		}
	}
}

// fixtureWants reads each `// want "re"...` comment of pkg into its
// regexps, keyed by file:line.
func fixtureWants(t *testing.T, pkg *checkedPackage) map[string][]*regexp.Regexp {
	out := map[string][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, rest, ok := strings.Cut(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for rest = strings.TrimSpace(rest); rest != ""; {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s: malformed want %q", key, rest)
					}
					pat, _ := strconv.Unquote(q)
					out[key] = append(out[key], regexp.MustCompile(pat))
					rest = strings.TrimSpace(rest[len(q):])
				}
			}
		}
	}
	return out
}

// TestLockRanksTable pins the real hierarchy: the two control-plane
// classes and the solver's scratch freelist, with distinct ranks in the
// documented order Server.mu > cellState.mu > scratchPool.mu, every
// entry documenting what it protects and naming a mutex that exists,
// and every exception giving its reason and naming a ranked class.
func TestLockRanksTable(t *testing.T) {
	want := []struct {
		typ, field string
	}{
		{"Server", "mu"},
		{"cellState", "mu"},
		{"scratchPool", "mu"},
	}
	if len(lockRanks) != len(want) {
		t.Fatalf("lockRanks has %d classes, want %d", len(lockRanks), len(want))
	}
	prev := int(^uint(0) >> 1) // MaxInt
	for i, w := range want {
		c := lockRanks[i]
		if c.Type != w.typ || c.Field != w.field {
			t.Errorf("lockRanks[%d] = %s, want %s.%s", i, c, w.typ, w.field)
		}
		if c.Rank >= prev {
			t.Errorf("lockRanks[%d] (%s) rank %d not strictly below its predecessor %d", i, c, c.Rank, prev)
		}
		if c.Doc == "" {
			t.Errorf("lockRanks[%d] (%s) has no Doc", i, c)
		}
		prev = c.Rank
	}
	for _, e := range lockExceptions {
		if e.Reason == "" {
			t.Errorf("lock-order exception %s has no Reason", e.Func)
		}
		if !slices.ContainsFunc(lockRanks, func(c lockClass) bool { return c.String() == e.Class }) {
			t.Errorf("lock-order exception %s names %s, which lockRanks does not rank", e.Func, e.Class)
		}
	}
	resolveLockRanks(t, lockRanks)
}

// resolveLockRanks fails for a class whose mutex does not exist in the
// module: a type or package-level variable that is missing, a field
// that is missing, or one that is not a sync.Mutex or sync.RWMutex. The
// walk only ever matches ranks against the locks it meets, so without
// this a rank for a deleted lock stays green.
func resolveLockRanks(t *testing.T, ranks []lockClass) {
	t.Helper()
	pkgs := modulePackages(t)
	for _, c := range ranks {
		i := slices.IndexFunc(pkgs, func(p *checkedPackage) bool { return p.Path == c.Pkg })
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
