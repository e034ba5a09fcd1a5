package lint_test

import (
	"testing"

	"github.com/flare-sim/flare/internal/lint"
)

// TestTreeClean is the regression gate behind `make lint`: it loads the
// whole module exactly as cmd/flarevet does and asserts the suite
// produces zero findings. Any new wall-clock read, map range, layering
// break, lock-order inversion, hand-rolled obs.Event literal, or stale
// waiver fails this test (and so `go test ./...`) even if the author
// never ran flarevet.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is seconds of work; skipped in -short")
	}
	pkgs, err := lint.LoadPackages("../..", "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	clean := true
	for _, pkg := range pkgs {
		for _, d := range lint.Run(pkg, lint.AnalyzersFor(pkg.Path)) {
			t.Errorf("%s", d)
			clean = false
		}
	}
	if clean {
		t.Logf("flarevet clean across %d packages", len(pkgs))
	}
}
