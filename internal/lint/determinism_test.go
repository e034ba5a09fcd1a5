package lint_test

import (
	"testing"

	"github.com/flare-sim/flare/internal/lint"
	"github.com/flare-sim/flare/internal/lint/linttest"
)

// TestDeterminism covers the three forbidden constructs (map range,
// time.Now/Since, global math/rand), the reasoned allow waiver, the
// non-suppressing bare allow, the seeded-generator escape hatch, and
// the concurrency constructs the analyzer leaves alone.
func TestDeterminism(t *testing.T) {
	linttest.Run(t, "testdata/determinism", "fixture/determinism", lint.Determinism)
}

// TestDeterminismScope pins the package-selection rule: determinism is
// in the suite for sim-clock packages and absent everywhere else.
func TestDeterminismScope(t *testing.T) {
	for _, path := range []string{
		lint.ModulePath + "/internal/cellsim",
		lint.ModulePath + "/internal/cellsim/driver",
		lint.ModulePath + "/internal/core",
		lint.ModulePath + "/internal/lte",
		lint.ModulePath + "/internal/sim",
		lint.ModulePath + "/internal/transport",
		lint.ModulePath + "/internal/has",
	} {
		if !hasAnalyzer(lint.AnalyzersFor(path), "determinism") {
			t.Errorf("determinism missing for sim-clock package %s", path)
		}
	}
	for _, path := range []string{
		lint.ModulePath + "/internal/oneapi", // live HTTP server: wall clock is its job
		lint.ModulePath + "/internal/obs",
		lint.ModulePath + "/cmd/flarevet",
	} {
		if hasAnalyzer(lint.AnalyzersFor(path), "determinism") {
			t.Errorf("determinism wrongly applied to wall-clock package %s", path)
		}
	}
}

func hasAnalyzer(as []*lint.Analyzer, name string) bool {
	for _, a := range as {
		if a.Name == name {
			return true
		}
	}
	return false
}
