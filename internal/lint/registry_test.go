package lint_test

import (
	"strings"
	"testing"

	"github.com/flare-sim/flare/internal/lint"
)

// TestAnalyzerHelpCoversRegistry pins the -help-analyzers text to the
// registry: every registered analyzer appears by name with a non-empty
// doc, names are unique, and the suite is exactly the two analyzers
// this tree documents. Adding an analyzer without registering it (or
// registering one without doc) fails here, not in a user's terminal.
func TestAnalyzerHelpCoversRegistry(t *testing.T) {
	all := lint.Analyzers()
	if len(all) != 2 {
		t.Fatalf("registry has %d analyzers, want 2 — lockorder, directive (update this pin, -help-analyzers, DESIGN.md §12, and README together)", len(all))
	}
	help := lint.AnalyzerHelp()
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %q has empty name or doc", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if !strings.Contains(help, a.Name+"\n") {
			t.Errorf("AnalyzerHelp() does not list analyzer %q", a.Name)
		}
		if !strings.Contains(help, a.Doc) {
			t.Errorf("AnalyzerHelp() does not carry the doc for %q", a.Name)
		}
	}
}
