package main

import (
	"testing"

	"github.com/flare-sim/flare/internal/cellsim"
)

// TestParseSchemeIgnoresCase pins that -scheme and -mix resolve a
// scheme name the same way: in any case, with surrounding space.
func TestParseSchemeIgnoresCase(t *testing.T) {
	for _, name := range []string{"flare", "FLARE", " Flare "} {
		if s, err := parseScheme(name); err != nil || s != cellsim.SchemeFLARE {
			t.Errorf("parseScheme(%q) = %v, %v; want FLARE", name, s, err)
		}
	}
	if _, err := parseScheme("nope"); err == nil {
		t.Error(`parseScheme("nope") accepted an unknown scheme`)
	}
}
