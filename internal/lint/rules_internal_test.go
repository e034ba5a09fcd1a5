package lint

import "testing"

// TestLayerRulesTable sanity-checks the declarative DAG itself against
// the boundaries PRs 2 and 4 introduced: observer-hook layers never
// import obs, drivers never import the engine, obs imports no sim
// package — and the legitimate edges stay open.
func TestLayerRulesTable(t *testing.T) {
	cases := []struct {
		pkg, imp string
		bad      bool
	}{
		{ModulePath + "/internal/has", ModulePath + "/internal/obs", true},
		{ModulePath + "/internal/abr", ModulePath + "/internal/obs", true},
		{ModulePath + "/internal/faults", ModulePath + "/internal/obs", true},
		{ModulePath + "/internal/obs", ModulePath + "/internal/sim", true},
		{ModulePath + "/internal/cellsim/driver", ModulePath + "/internal/cellsim", true},
		{ModulePath + "/internal/oneapi", ModulePath + "/internal/cellsim", true},
		{ModulePath + "/internal/oneapi", ModulePath + "/internal/cellsim/driver", true},
		{ModulePath + "/internal/oneapi", ModulePath + "/internal/loadgen", true},
		{ModulePath + "/internal/loadgen", ModulePath + "/internal/cellsim", true},
		{ModulePath + "/internal/loadgen", ModulePath + "/internal/sim", true},
		{ModulePath + "/internal/flaresuite", ModulePath + "/internal/oneapi", true},
		{ModulePath + "/internal/flaresuite", ModulePath + "/internal/loadgen", true},
		{ModulePath + "/cmd/flaresuite", ModulePath + "/internal/cellsim", true},
		{ModulePath + "/internal/core", ModulePath + "/internal/obs", false},
		{ModulePath + "/internal/oneapi", ModulePath + "/internal/sim", false},
		{ModulePath + "/internal/oneapi", ModulePath + "/internal/obs", false},
		{ModulePath + "/internal/loadgen", ModulePath + "/internal/oneapi", false},
		{ModulePath + "/internal/loadgen", ModulePath + "/internal/obs", false},
		{ModulePath + "/internal/cellsim/driver", ModulePath + "/internal/cellsim/driver/sub", false},
		{ModulePath + "/internal/lte", ModulePath + "/internal/sim", false},
		{ModulePath + "/internal/has", ModulePath + "/internal/transport", false},
		{ModulePath + "/internal/flaresuite", ModulePath + "/internal/cellsim", false},
		{ModulePath + "/internal/flaresuite", ModulePath + "/internal/obs", false},
		{ModulePath + "/internal/flaresuite", ModulePath + "/internal/buildinfo", false},
		{ModulePath + "/cmd/flaresuite", ModulePath + "/internal/flaresuite", false},
		{ModulePath + "/cmd/flaresuite", ModulePath + "/internal/buildinfo", false},
		{ModulePath + "/cmd/flaresuite", ModulePath + "/internal/graceful", false},
	}
	for _, c := range cases {
		got := false
		for _, rule := range LayerRules {
			if pathMatches(rule.Scope, c.pkg) && forbidden(rule, c.imp) {
				got = true
			}
		}
		if got != c.bad {
			t.Errorf("%s importing %s: forbidden=%v, want %v", c.pkg, c.imp, got, c.bad)
		}
	}
}

// TestIsSimClock pins domain membership, including subpackage
// inheritance and the wall-clock exemptions.
func TestIsSimClock(t *testing.T) {
	for path, want := range map[string]bool{
		ModulePath + "/internal/cellsim":        true,
		ModulePath + "/internal/cellsim/driver": true,
		ModulePath + "/internal/core":           true,
		ModulePath + "/internal/lte":            true,
		ModulePath + "/internal/sim":            true,
		ModulePath + "/internal/transport":      true,
		ModulePath + "/internal/has":            true,
		ModulePath + "/internal/oneapi":         false,
		ModulePath + "/internal/flaresuite":     false,
		ModulePath + "/internal/obs":            false,
		ModulePath + "/internal/hasty":          false, // prefix, not subtree
		ModulePath + "/cmd/cellsim":             false,
	} {
		if got := IsSimClock(path); got != want {
			t.Errorf("IsSimClock(%s) = %v, want %v", path, got, want)
		}
	}
}
