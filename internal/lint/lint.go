// Package lint is flarevet's analyzer suite: mechanical enforcement of
// the invariants the tree keeps by convention — byte-exact
// deterministic replay inside the sim-clock domain (no map ranges, wall
// clock or ambient randomness; RNGs seeded from the config), the
// layering DAG (observer hooks never import obs, drivers see the engine
// only through the narrow view), the single-sourced flare-trace/1 event
// schema, and the lock hierarchy.
//
// Runtime invariants are not guessed from syntax here: the zero-alloc
// hot path is held by the AllocsPerRun/MemStats pins, and the worker
// pools' disjoint-slot writes by the lockstep and -race suites.
//
// The suite is modelled on golang.org/x/tools/go/analysis (Analyzer /
// Pass / Diagnostic, analysistest-style fixtures) but is implemented on
// the standard library alone — go/ast, go/types, go/importer and a
// `go list`-driven loader — because this module vendors no third-party
// dependencies. The API is kept close enough to go/analysis that
// porting onto the real framework is a mechanical change if x/tools is
// ever vendored.
//
// Suppression is explicit and audited: a finding is silenced only by a
// `//flare:allow <reason>` directive on the offending line (or the line
// above), and the runner itself rejects a directive with no reason, so
// every suppression in the tree documents why the invariant is safe to
// waive at that site.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one invariant checker. Run inspects a single
// package through the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and documentation.
	Name string
	// Doc is the one-paragraph description `flarevet -help` prints.
	Doc string
	// Run performs the analysis on one package.
	Run func(*Pass)
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	// Analyzer is the analyzer this pass executes.
	Analyzer *Analyzer
	// Fset maps token.Pos values in Files to file positions.
	Fset *token.FileSet
	// Files are the package's parsed sources (comments included).
	Files []*ast.File
	// PkgPath is the package import path ("github.com/..." for real
	// tree runs, the fixture directory name under analysistest).
	PkgPath string
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's findings for Files.
	Info *types.Info

	// store is the session fact store: cross-package seed-sink facts
	// and the merged waiver index.
	store *FactStore
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the go-vet-style "file:line:col: analyzer: message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Run applies the analyzers to one standalone package and returns the
// surviving diagnostics: findings suppressed by a well-formed
// //flare:allow directive are dropped; malformed directives (an allow
// with no reason, or any other //flare: comment) and stale waivers that
// suppressed nothing are themselves reported under the "directive"
// pseudo-analyzer.
//
// Run is the single-package convenience (fixtures, one-shot checks).
// Multi-package sessions — cmd/flarevet, the tree test — create one
// FactStore, call RunWithFacts per package in dependency order, and
// append StaleWaivers at the end, so that facts and waivers flow
// across package boundaries.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	store := NewFactStore()
	diags := RunWithFacts(pkg, analyzers, store)
	diags = append(diags, store.StaleWaivers()...)
	SortDiagnostics(diags)
	return diags
}

// RunWithFacts applies the analyzers to one package of a session whose
// state lives in store. The package's directives are merged into the
// store before the analyzers run (so waivers in this package's files
// can suppress findings reported by LATER packages, and vice versa for
// facts); suppression is then checked against the whole session index,
// consuming the matched directives. Malformed-directive findings are
// appended; stale-waiver findings are NOT — harvest them from
// store.StaleWaivers once the session is complete.
func RunWithFacts(pkg *Package, analyzers []*Analyzer, store *FactStore) []Diagnostic {
	dirs := collectDirectives(pkg.Fset, pkg.Files)
	store.mergeDirectives(dirs)

	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			PkgPath:  pkg.Path,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			store:    store,
			diags:    &diags,
		}
		a.Run(pass)
	}

	kept := diags[:0]
	for _, d := range diags {
		if !store.dirs.allows(d.Pos) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, dirs.malformed...)
	SortDiagnostics(kept)
	return kept
}
