package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestLayering holds the module's import DAG: every package's imports,
// as `go list` reports them for its non-test files, checked against
// layerRules. A forbidden import compiles and runs — no other test
// fails on one (an lte -> obs import, say, changes nothing at run time)
// — so this table is its only guard.
func TestLayering(t *testing.T) {
	cmd := exec.Command("go", "list", "-f", "{{.ImportPath}}{{range .Imports}} {{.}}{{end}}", "./...")
	cmd.Dir = "../.."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 20 {
		t.Fatalf("suspiciously few packages listed: %d", len(lines))
	}
	for _, line := range lines {
		fields := strings.Fields(line)
		for _, v := range layerViolations(fields[0], fields[1:]) {
			t.Error(v)
		}
	}
}

// TestLayeringRealRules checks the imports of a fixture file as if it
// lived in the has subtree, so the production layerRules apply: the
// obs import is the one violation. Under core, where obs is a declared
// dependency, the same imports are clean.
func TestLayeringRealRules(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("testdata", "layering_real", "hasfix.go"), nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	var imports []string
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		imports = append(imports, p)
	}
	if len(imports) != 3 {
		t.Fatalf("fixture imports %v, want 3", imports)
	}
	got := layerViolations(internalPrefix+"has/fixture", imports)
	if len(got) != 1 || !strings.Contains(got[0], "must not import "+internalPrefix+"obs:") {
		t.Errorf("has/fixture violations = %q, want exactly the obs import", got)
	}
	if got := layerViolations(internalPrefix+"core/fixture", imports); len(got) != 0 {
		t.Errorf("core/fixture violations = %q, want none", got)
	}
}

// layerViolations describes each of pkg's imports that a layerRule
// forbids.
func layerViolations(pkg string, imports []string) []string {
	var out []string
	for _, imp := range imports {
		for _, rule := range layerRules {
			if pathMatches(rule.Scope, pkg) && forbidden(rule, imp) {
				out = append(out, fmt.Sprintf("%s must not import %s: %s", pkg, imp, rule.Reason))
			}
		}
	}
	return out
}

// TestLayerRulesTable sanity-checks the declarative DAG itself against
// the boundaries it exists for: observer-hook layers never import obs,
// drivers never import the engine, obs imports no sim package — and the
// legitimate edges stay open.
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
		for _, rule := range layerRules {
			if pathMatches(rule.Scope, c.pkg) && forbidden(rule, c.imp) {
				got = true
			}
		}
		if got != c.bad {
			t.Errorf("%s importing %s: forbidden=%v, want %v", c.pkg, c.imp, got, c.bad)
		}
	}
}

// A layerRule forbids a package subtree (Scope, prefix match) from
// importing the Forbid subtrees, except for the Except subtrees.
// Reason is shown in the diagnostic.
type layerRule struct {
	Scope  string
	Forbid []string
	Except []string
	Reason string
}

// layerRules is the import DAG, bottom layer first. The low layers are
// allow-listed (everything in-module is forbidden except the named
// dependencies); the cross-cutting rules at the end pin two
// architectural boundaries: drivers reach the engine only through the
// narrow Engine view, and the sim/radio/player layers publish telemetry
// through observer hooks rather than by importing obs.
var layerRules = []layerRule{
	{
		Scope:  internalPrefix + "sim",
		Forbid: []string{ModulePath},
		Except: []string{internalPrefix + "sim"},
		Reason: "the event kernel is the bottom layer and imports nothing in-module",
	},
	{
		Scope:  internalPrefix + "lte",
		Forbid: []string{ModulePath},
		Except: []string{internalPrefix + "lte", internalPrefix + "sim"},
		Reason: "the radio model sits directly on the kernel",
	},
	{
		Scope:  internalPrefix + "transport",
		Forbid: []string{ModulePath},
		Except: []string{internalPrefix + "transport", internalPrefix + "lte", internalPrefix + "sim"},
		Reason: "transport rides on the radio model only",
	},
	{
		Scope:  internalPrefix + "has",
		Forbid: []string{ModulePath},
		Except: []string{internalPrefix + "has", internalPrefix + "transport", internalPrefix + "lte", internalPrefix + "sim", internalPrefix + "qoe"},
		Reason: "players know segments, flows and the QoE sums they tally, not schemes or telemetry",
	},
	{
		Scope:  internalPrefix + "abr",
		Forbid: []string{ModulePath},
		Except: []string{internalPrefix + "abr", internalPrefix + "has", internalPrefix + "lte", internalPrefix + "metrics", internalPrefix + "sim"},
		Reason: "client ABR logic must stay engine- and telemetry-free",
	},
	{
		Scope:  internalPrefix + "faults",
		Forbid: []string{ModulePath},
		Except: []string{internalPrefix + "faults", internalPrefix + "sim"},
		Reason: "the fault injector publishes through observer hooks, not obs",
	},
	{
		Scope:  internalPrefix + "core",
		Forbid: []string{ModulePath},
		Except: []string{internalPrefix + "core", internalPrefix + "has", internalPrefix + "lte", internalPrefix + "obs", internalPrefix + "sim"},
		Reason: "the controller consumes ladders and radio constants; it never reaches up into engines or servers",
	},
	{
		Scope:  internalPrefix + "obs",
		Forbid: []string{ModulePath},
		Except: []string{internalPrefix + "obs"},
		Reason: "obs is pure telemetry: importing a sim package would invert the observer direction and invite cycles",
	},
	{
		Scope:  internalPrefix + "metrics",
		Forbid: []string{ModulePath},
		Except: []string{internalPrefix + "metrics"},
		Reason: "metrics renderers are a leaf utility",
	},
	{
		Scope:  internalPrefix + "qoe",
		Forbid: []string{ModulePath},
		Except: []string{internalPrefix + "qoe"},
		Reason: "the QoE model is a leaf utility",
	},
	{
		Scope:  internalPrefix + "cellsim/driver",
		Forbid: []string{internalPrefix + "cellsim"},
		Except: []string{internalPrefix + "cellsim/driver"},
		Reason: "drivers touch the engine only through the narrow driver.Engine view; importing the engine package would collapse the seam",
	},
	{
		Scope:  internalPrefix + "oneapi",
		Forbid: []string{ModulePath},
		Except: []string{internalPrefix + "oneapi", internalPrefix + "core", internalPrefix + "has", internalPrefix + "obs", internalPrefix + "sim"},
		Reason: "the control plane serves simulations and live clients alike: the controller, ladders, telemetry, and the worker pool — never the engine (cellsim reaching in would make the server simulation-shaped)",
	},
	{
		Scope:  internalPrefix + "loadgen",
		Forbid: []string{ModulePath},
		Except: []string{internalPrefix + "loadgen", internalPrefix + "oneapi", internalPrefix + "core", internalPrefix + "has", internalPrefix + "obs"},
		Reason: "the load driver speaks to the control plane over its wire client only; importing cellsim would entangle load generation with the engine",
	},
	{
		Scope:  internalPrefix + "flaresuite",
		Forbid: []string{ModulePath},
		Except: []string{
			internalPrefix + "flaresuite",
			internalPrefix + "buildinfo", internalPrefix + "cellsim",
			internalPrefix + "faults", internalPrefix + "has",
			internalPrefix + "lte", internalPrefix + "metrics",
			internalPrefix + "obs", internalPrefix + "sim",
		},
		Reason: "the experiment runner compiles axes to engine configs and builds the paper's reports; it must never see oneapi wire internals or the load driver",
	},
	{
		Scope:  ModulePath + "/cmd/flaresuite",
		Forbid: []string{ModulePath},
		Except: []string{
			ModulePath + "/cmd/flaresuite",
			internalPrefix + "flaresuite",
			internalPrefix + "buildinfo", internalPrefix + "graceful",
		},
		Reason: "the suite CLI is flag parsing over the flaresuite API (plus -version and signal drain); engine imports belong behind the runner",
	},
}

// pathMatches reports whether path is pattern or inside its subtree.
func pathMatches(pattern, path string) bool {
	return path == pattern || strings.HasPrefix(path, pattern+"/")
}

// forbidden reports whether path violates rule.
func forbidden(rule layerRule, path string) bool {
	hit := false
	for _, f := range rule.Forbid {
		if pathMatches(f, path) {
			hit = true
			break
		}
	}
	if !hit {
		return false
	}
	for _, e := range rule.Except {
		if pathMatches(e, path) {
			return false
		}
	}
	return true
}
