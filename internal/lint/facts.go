// The fact store: cross-package state shared by one analysis session.
//
// The loader type-checks packages in dependency order and reuses the
// in-session *types.Package for every import edge, so a *types.Func
// seen at a call site in package P IS the object the summarizer saw
// when it processed P's dependency earlier. That identity is what lets
// per-function facts (seedpurity's seed-sink parameters) flow from
// callee packages to caller packages without any serialization: the
// store is just a map keyed by the objects themselves. This mirrors
// x/tools' analysis.Fact machinery, collapsed to the single-process
// case flarevet always runs in.
//
// The store also merges every package's //flare:allow directives into
// one index, because the stale-waiver check can only run once every
// package has had the chance to consume every directive.
package lint

import (
	"fmt"
	"go/types"
	"sort"
)

// A FactStore accumulates cross-package analysis state for one session
// (one cmd/flarevet invocation, one tree test, one fixture run). Create
// it with NewFactStore, thread it through RunWithFacts for every
// package in dependency order, then harvest StaleWaivers.
type FactStore struct {
	// dirs indexes every reasoned //flare:allow in the session, with
	// consumption bits. Files are unique across packages, so merging
	// is plain map union.
	dirs directives
	// seedSinks marks parameter indices that a function forwards into
	// an RNG constructor: call sites must pass config-seed-derived
	// arguments there.
	seedSinks map[*types.Func]map[int]bool
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{
		dirs: directives{
			allowLines: make(map[string]map[int]*allowSite),
		},
		seedSinks: make(map[*types.Func]map[int]bool),
	}
}

// mergeDirectives folds one package's directive index into the session
// index.
func (s *FactStore) mergeDirectives(d *directives) {
	for file, lines := range d.allowLines {
		dst := s.dirs.allowLines[file]
		if dst == nil {
			dst = make(map[int]*allowSite, len(lines))
			s.dirs.allowLines[file] = dst
		}
		for line, site := range lines {
			dst[line] = site
		}
	}
}

// addSeedSink records that callers of fn must pass a config-seed-
// derived value as parameter param. Returns true if the fact is new.
func (s *FactStore) addSeedSink(fn *types.Func, param int) bool {
	m := s.seedSinks[fn]
	if m == nil {
		m = make(map[int]bool)
		s.seedSinks[fn] = m
	}
	if m[param] {
		return false
	}
	m[param] = true
	return true
}

// StaleWaivers returns one finding per //flare:allow directive that no
// analyzer consumed during the session: a waiver that suppresses
// nothing documents a hazard that no longer exists, and its reason —
// written for a different line of code — misleads the next reader.
// Call it only after every package of the session has been analyzed
// (narrow pattern runs skip it: the consuming finding may live in a
// package the pattern did not select).
//
// Stale findings are deliberately exempt from //flare:allow
// suppression — the fix is deleting the directive, not waiving the
// waiver.
func (s *FactStore) StaleWaivers() []Diagnostic {
	var out []Diagnostic
	for _, lines := range s.dirs.allowLines {
		for _, site := range lines {
			if site.used {
				continue
			}
			out = append(out, Diagnostic{
				Pos:      site.pos,
				Analyzer: "directive",
				Message: fmt.Sprintf("stale //flare:allow (%s): no finding is suppressed here; delete the directive or restore the code it excused",
					site.reason),
			})
		}
	}
	SortDiagnostics(out)
	return out
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
