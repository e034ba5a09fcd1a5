// Package lint is flarevet's analyzer suite: mechanical enforcement of
// the invariants the tree keeps by convention and no runtime test can
// hold — byte-exact deterministic replay inside the sim-clock domain
// (no map ranges, wall clock or global math/rand, any of which a test
// run can pass by luck), the layering DAG (observer hooks never import
// obs, drivers see the engine only through the narrow view), the
// single-sourced flare-trace event schema, and the lock hierarchy.
//
// Runtime invariants are not guessed from syntax here: the zero-alloc
// hot path is held by the AllocsPerRun/MemStats pins; seeding, shared
// RNGs and the worker pools' fold order by the goldens, the lockstep
// suites and -race.
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
	"sort"
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

// Run applies the analyzers to one package and returns the surviving
// diagnostics: findings suppressed by a well-formed //flare:allow
// directive are dropped; malformed directives (an allow with no reason,
// or any other //flare: comment) and stale waivers that suppressed
// nothing are themselves reported under the "directive"
// pseudo-analyzer.
//
// Packages are independent: every analyzer reports at a position in the
// package it inspects, so the package's own directives are the whole
// waiver index, and a package's findings are the same whether it is
// checked alone or as part of the module.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	dirs := collectDirectives(pkg.Fset, pkg.Files)

	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			PkgPath:  pkg.Path,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		a.Run(pass)
	}

	kept := diags[:0]
	for _, d := range diags {
		if !dirs.allows(d.Pos) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, dirs.malformed...)
	// The stale audit runs after suppression, so a stale waiver can
	// never excuse its own staleness.
	kept = append(kept, dirs.stale()...)
	SortDiagnostics(kept)
	return kept
}

// SortDiagnostics orders findings by file, line, column, analyzer.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
