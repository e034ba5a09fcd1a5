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
		{modulePath + "/internal/has", modulePath + "/internal/obs", true},
		{modulePath + "/internal/abr", modulePath + "/internal/obs", true},
		{modulePath + "/internal/faults", modulePath + "/internal/obs", true},
		{modulePath + "/internal/obs", modulePath + "/internal/sim", true},
		{modulePath + "/internal/cellsim/driver", modulePath + "/internal/cellsim", true},
		{modulePath + "/internal/oneapi", modulePath + "/internal/cellsim", true},
		{modulePath + "/internal/oneapi", modulePath + "/internal/cellsim/driver", true},
		{modulePath + "/internal/oneapi", modulePath + "/internal/loadgen", true},
		{modulePath + "/internal/loadgen", modulePath + "/internal/cellsim", true},
		{modulePath + "/internal/loadgen", modulePath + "/internal/sim", true},
		{modulePath + "/internal/flaresuite", modulePath + "/internal/oneapi", true},
		{modulePath + "/internal/flaresuite", modulePath + "/internal/loadgen", true},
		{modulePath + "/cmd/flaresuite", modulePath + "/internal/cellsim", true},
		{modulePath + "/internal/core", modulePath + "/internal/obs", false},
		{modulePath + "/internal/oneapi", modulePath + "/internal/sim", false},
		{modulePath + "/internal/oneapi", modulePath + "/internal/obs", false},
		{modulePath + "/internal/loadgen", modulePath + "/internal/oneapi", false},
		{modulePath + "/internal/loadgen", modulePath + "/internal/obs", false},
		{modulePath + "/internal/cellsim/driver", modulePath + "/internal/cellsim/driver/sub", false},
		{modulePath + "/internal/lte", modulePath + "/internal/sim", false},
		{modulePath + "/internal/has", modulePath + "/internal/transport", false},
		{modulePath + "/internal/abr", modulePath + "/internal/qoe", false},
		{modulePath + "/internal/flaresuite", modulePath + "/internal/cellsim", false},
		{modulePath + "/internal/flaresuite", modulePath + "/internal/obs", false},
		{modulePath + "/internal/flaresuite", modulePath + "/internal/buildinfo", false},
		{modulePath + "/cmd/flaresuite", modulePath + "/internal/flaresuite", false},
		{modulePath + "/cmd/flaresuite", modulePath + "/internal/buildinfo", false},
		{modulePath + "/cmd/flaresuite", modulePath + "/internal/graceful", false},
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
		Forbid: []string{modulePath},
		Except: []string{internalPrefix + "sim"},
		Reason: "the event kernel is the bottom layer and imports nothing in-module",
	},
	{
		Scope:  internalPrefix + "lte",
		Forbid: []string{modulePath},
		Except: []string{internalPrefix + "lte", internalPrefix + "sim"},
		Reason: "the radio model sits directly on the kernel",
	},
	{
		Scope:  internalPrefix + "transport",
		Forbid: []string{modulePath},
		Except: []string{internalPrefix + "transport", internalPrefix + "lte", internalPrefix + "sim"},
		Reason: "transport rides on the radio model only",
	},
	{
		Scope:  internalPrefix + "has",
		Forbid: []string{modulePath},
		Except: []string{internalPrefix + "has", internalPrefix + "transport", internalPrefix + "lte", internalPrefix + "sim", internalPrefix + "qoe"},
		Reason: "players know segments, flows and the QoE sums they tally, not schemes or telemetry",
	},
	{
		Scope:  internalPrefix + "abr",
		Forbid: []string{modulePath},
		Except: []string{internalPrefix + "abr", internalPrefix + "has", internalPrefix + "lte", internalPrefix + "metrics", internalPrefix + "qoe", internalPrefix + "sim"},
		Reason: "client ABR logic must stay engine- and telemetry-free",
	},
	{
		Scope:  internalPrefix + "faults",
		Forbid: []string{modulePath},
		Except: []string{internalPrefix + "faults", internalPrefix + "sim"},
		Reason: "the fault injector publishes through observer hooks, not obs",
	},
	{
		Scope:  internalPrefix + "core",
		Forbid: []string{modulePath},
		Except: []string{internalPrefix + "core", internalPrefix + "has", internalPrefix + "lte", internalPrefix + "obs", internalPrefix + "sim"},
		Reason: "the controller consumes ladders and radio constants; it never reaches up into engines or servers",
	},
	{
		Scope:  internalPrefix + "obs",
		Forbid: []string{modulePath},
		Except: []string{internalPrefix + "obs"},
		Reason: "obs is pure telemetry: importing a sim package would invert the observer direction and invite cycles",
	},
	{
		Scope:  internalPrefix + "metrics",
		Forbid: []string{modulePath},
		Except: []string{internalPrefix + "metrics"},
		Reason: "metrics renderers are a leaf utility",
	},
	{
		Scope:  internalPrefix + "qoe",
		Forbid: []string{modulePath},
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
		Forbid: []string{modulePath},
		Except: []string{internalPrefix + "oneapi", internalPrefix + "core", internalPrefix + "has", internalPrefix + "obs", internalPrefix + "sim"},
		Reason: "the control plane serves simulations and live clients alike: the controller, ladders, telemetry, and the worker pool — never the engine (cellsim reaching in would make the server simulation-shaped)",
	},
	{
		Scope:  internalPrefix + "loadgen",
		Forbid: []string{modulePath},
		Except: []string{internalPrefix + "loadgen", internalPrefix + "oneapi", internalPrefix + "core", internalPrefix + "has", internalPrefix + "obs"},
		Reason: "the load driver speaks to the control plane over its wire client only; importing cellsim would entangle load generation with the engine",
	},
	{
		Scope:  internalPrefix + "flaresuite",
		Forbid: []string{modulePath},
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
		Scope:  modulePath + "/cmd/flaresuite",
		Forbid: []string{modulePath},
		Except: []string{
			modulePath + "/cmd/flaresuite",
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
