// The declarative ruleset: which packages live in the simulated-clock
// domain, the import DAG the layering analyzer enforces, and which
// analyzers apply where. cmd/flarevet and the tree-wide regression test
// both read this table, so "the rules" exist in exactly one place.
package lint

import (
	"fmt"
	"strings"
)

// ModulePath is this module's import path prefix.
const ModulePath = "github.com/flare-sim/flare"

// ObsPackage is the telemetry package whose Event schema must stay
// single-sourced.
const ObsPackage = ModulePath + "/internal/obs"

// SimClockPackages are the packages that run under the simulated TTI
// clock and must replay byte-identically: any wall-clock read,
// unordered map iteration, or global-RNG draw inside them silently
// breaks the FF-on/FF-off equivalence and golden determinism that PRs
// 2-3 proved. Subpackages inherit membership.
var SimClockPackages = []string{
	ModulePath + "/internal/cellsim", // engine (covers cellsim/driver)
	ModulePath + "/internal/core",    // solver + Algorithm 1
	ModulePath + "/internal/lte",     // radio model
	ModulePath + "/internal/sim",     // event kernel + clock
	ModulePath + "/internal/transport",
	ModulePath + "/internal/has", // players
}

// IsSimClock reports whether pkgPath is inside the sim-clock domain.
func IsSimClock(pkgPath string) bool {
	for _, p := range SimClockPackages {
		if pathMatches(p, pkgPath) {
			return true
		}
	}
	return false
}

// A LayerRule forbids a package subtree (Scope, prefix match) from
// importing the Forbid subtrees, except for the Except subtrees.
// Reason is shown in the diagnostic.
type LayerRule struct {
	Scope  string
	Forbid []string
	Except []string
	Reason string
}

// internalPrefix abbreviates rule entries below.
const internalPrefix = ModulePath + "/internal/"

// LayerRules is the import DAG, bottom layer first. The low layers are
// allow-listed (everything in-module is forbidden except the named
// dependencies); the cross-cutting rules at the end pin the two
// architectural boundaries PR 2 and PR 4 introduced: drivers reach the
// engine only through the narrow Engine view, and the sim/radio/player
// layers publish telemetry through observer hooks rather than by
// importing obs.
var LayerRules = []LayerRule{
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
		Reason: "drivers touch the engine only through the narrow driver.Engine view (PR 2); importing the engine package would collapse the seam",
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

// DirectiveCheck is the directive grammar and waiver audit. Its work —
// rejecting bare //flare:allow, unknown //flare: directives, and stale
// waivers no analyzer consumed — is performed by the runner itself
// (lint.Run), because it must see every other analyzer's suppressions;
// it is registered here so the suite's table (flarevet -help-analyzers,
// the five-analyzer help test) describes everything that can produce a
// finding.
var DirectiveCheck = &Analyzer{
	Name: "directive",
	Doc: "validates //flare:allow <reason> grammar, rejects any other //flare: directive, and " +
		"reports stale //flare:allow directives that no longer suppress any finding",
	Run: func(*Pass) {},
}

// Analyzers returns the full suite — all five analyzers — in reporting
// order. This table is the single registry: -help-analyzers and the
// help-coverage test are generated from it.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Determinism,
		Layering, ObsDiscipline, LockOrder,
		DirectiveCheck,
	}
}

// AnalyzersFor selects the analyzers that apply to pkgPath: layering,
// obsdiscipline, lockorder, and the directive audit run everywhere;
// determinism only inside the sim-clock domain (live servers and CLIs
// may read the wall clock).
func AnalyzersFor(pkgPath string) []*Analyzer {
	as := []*Analyzer{Layering, ObsDiscipline, LockOrder, DirectiveCheck}
	if IsSimClock(pkgPath) {
		as = append([]*Analyzer{Determinism}, as...)
	}
	return as
}

// AnalyzerHelp renders the registered analyzer table for
// `flarevet -help-analyzers` — generated from Analyzers() so the CLI
// can never drift from the registry.
func AnalyzerHelp() string {
	var b strings.Builder
	for _, a := range Analyzers() {
		fmt.Fprintf(&b, "%s\n    %s\n\n", a.Name, a.Doc)
	}
	return b.String()
}
