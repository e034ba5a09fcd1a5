// The analyzer registry: which analyzers flarevet runs. cmd/flarevet
// and the tree-wide regression test both read it, so "the suite" exists
// in exactly one place.
package lint

import (
	"fmt"
	"strings"
)

// ModulePath is this module's import path prefix.
const ModulePath = "github.com/flare-sim/flare"

// internalPrefix abbreviates the rank table's package paths.
const internalPrefix = ModulePath + "/internal/"

// DirectiveCheck is the directive grammar and waiver audit. Its work —
// rejecting bare //flare:allow, unknown //flare: directives, and stale
// waivers no analyzer consumed — is performed by the runner itself
// (lint.Run), because it must see every other analyzer's suppressions;
// it is registered here so the suite's table (flarevet -help-analyzers,
// the help-coverage test) describes everything that can produce a
// finding.
var DirectiveCheck = &Analyzer{
	Name: "directive",
	Doc: "validates //flare:allow <reason> grammar, rejects any other //flare: directive, and " +
		"reports stale //flare:allow directives that no longer suppress any finding",
	Run: func(*Pass) {},
}

// Analyzers returns the full suite in reporting order; every analyzer
// applies to every package. This table is the single registry:
// -help-analyzers and the help-coverage test are generated from it.
func Analyzers() []*Analyzer {
	return []*Analyzer{LockOrder, DirectiveCheck}
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
