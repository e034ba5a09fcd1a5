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

// TestRefusedConfigExitsTwo pins that a flag value the simulator's
// configuration check refuses is a usage error (exit 2), caught before
// the run starts, like an -itbs out of range.
func TestRefusedConfigExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-duration", "-5s"},
		{"-videos", "-3"},
		{"-segment", "0s"},
		{"-channel", "static", "-itbs", "27"},
	} {
		if got := run(args); got != 2 {
			t.Errorf("flaresim %v exited %d, want 2", args, got)
		}
	}
}
