package lint_test

import (
	"sync"
	"testing"

	"github.com/flare-sim/flare/internal/lint"
)

// module is the whole module, type-checked once for the tests that read
// it (TestTreeClean, TestLockRanksTable): the load is most of their
// time.
var module struct {
	once sync.Once
	pkgs []*lint.Package
	err  error
}

func loadModule(t *testing.T) []*lint.Package {
	t.Helper()
	module.once.Do(func() { module.pkgs, module.err = lint.LoadPackages("../..", "./...") })
	if module.err != nil {
		t.Fatalf("load module: %v", module.err)
	}
	return module.pkgs
}

// TestTreeClean is the regression gate behind `make lint`: it loads the
// whole module exactly as cmd/flarevet does and asserts the suite
// produces zero findings. Any lock-order inversion, malformed directive
// or stale waiver fails this test (and so `go test ./...`) even if the
// author never ran flarevet.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is seconds of work; skipped in -short")
	}
	pkgs := loadModule(t)
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	clean := true
	for _, pkg := range pkgs {
		for _, d := range lint.Run(pkg, lint.Analyzers()) {
			t.Errorf("%s", d)
			clean = false
		}
	}
	if clean {
		t.Logf("flarevet clean across %d packages", len(pkgs))
	}
}
