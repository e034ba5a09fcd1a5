// Directive grammar. flarevet understands one comment directive:
//
//	//flare:allow <reason>
//	    Suppresses any flarevet finding on the same line or on the
//	    line directly below the directive. The reason is mandatory:
//	    a bare //flare:allow is itself a finding. Reasons are free
//	    text; write why the invariant is safe to waive HERE. A
//	    directive that suppresses nothing is also a finding (a stale
//	    waiver), so the audit trail cannot rot.
//
// Every other comment that starts with //flare: is an unknown directive
// and is reported: a misspelt waiver, or a marker for a check the suite
// does not run, must not sit in the tree promising a guarantee that
// nothing enforces.
//
// Directives are ordinary line comments, invisible to the compiler:
// adding or removing them cannot change behaviour, goldens, or
// benchmarks.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

const (
	directivePrefix = "//flare:"
	allowPrefix     = directivePrefix + "allow"
)

// DirectiveKind classifies a parsed flare directive.
type DirectiveKind int

const (
	// DirectiveNone means the comment is not a flare directive.
	DirectiveNone DirectiveKind = iota
	// DirectiveAllow is //flare:allow <reason>.
	DirectiveAllow
	// DirectiveUnknown is any other //flare: comment.
	DirectiveUnknown
)

// ParseDirective parses one comment's raw text (as go/ast stores it,
// leading "//" included). kind is DirectiveNone when the comment is not
// a flare directive. For allow directives, reason is the trimmed reason
// text. malformed reports a grammar violation: a bare "//flare:allow"
// (the reason is mandatory and must be separated from the keyword by a
// space), or any unknown directive.
//
// This is the single implementation the runner, the stale-waiver check,
// and FuzzDirective all share.
func ParseDirective(text string) (kind DirectiveKind, reason string, malformed bool) {
	switch {
	case strings.HasPrefix(text, allowPrefix):
		rest := strings.TrimPrefix(text, allowPrefix)
		reason = strings.TrimSpace(rest)
		if reason == "" || !strings.HasPrefix(rest, " ") {
			return DirectiveAllow, "", true
		}
		return DirectiveAllow, reason, false
	case strings.HasPrefix(text, directivePrefix):
		return DirectiveUnknown, "", true
	}
	return DirectiveNone, "", false
}

// FormatAllow renders a well-formed allow directive for reason. It is
// the inverse of ParseDirective for reasons that are already trimmed
// and newline-free (FuzzDirective pins the round-trip).
func FormatAllow(reason string) string {
	return allowPrefix + " " + reason
}

// allowSite is one well-formed //flare:allow directive, with the
// consumption bit the stale-waiver check (directives.stale) reads.
type allowSite struct {
	pos    token.Position
	reason string
	used   bool
}

// directives is the per-package directive index built by the runner.
type directives struct {
	// allowLines maps filename -> line -> the reasoned allow directive
	// anchored there.
	allowLines map[string]map[int]*allowSite
	// malformed collects directive-grammar findings.
	malformed []Diagnostic
}

// allows reports whether a diagnostic at pos is suppressed by an allow
// directive on the same line or the line directly above, marking that
// directive as consumed.
func (d *directives) allows(pos token.Position) bool {
	lines := d.allowLines[pos.Filename]
	s := lines[pos.Line]
	if s == nil {
		s = lines[pos.Line-1]
	}
	if s == nil {
		return false
	}
	s.used = true
	return true
}

// stale returns one finding per //flare:allow directive that no
// finding consumed: a waiver that suppresses nothing documents a hazard
// that no longer exists, and its reason — written for a different line
// of code — misleads the next reader. Stale findings are exempt from
// suppression: the fix is deleting the directive, not waiving the
// waiver.
func (d *directives) stale() []Diagnostic {
	var out []Diagnostic
	for _, lines := range d.allowLines {
		for _, site := range lines {
			if !site.used {
				out = append(out, Diagnostic{
					Pos:      site.pos,
					Analyzer: "directive",
					Message: fmt.Sprintf("stale //flare:allow (%s): no finding is suppressed here; delete the directive or restore the code it excused",
						site.reason),
				})
			}
		}
	}
	return out
}

// collectDirectives scans every comment in the package for flare
// directives, validating their grammar.
func collectDirectives(fset *token.FileSet, files []*ast.File) *directives {
	d := &directives{allowLines: make(map[string]map[int]*allowSite)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				kind, reason, malformed := ParseDirective(c.Text)
				if kind == DirectiveNone {
					continue
				}
				pos := fset.Position(c.Pos())
				if malformed {
					msg := "flare:allow requires a reason: //flare:allow <why this is safe>"
					if kind == DirectiveUnknown {
						msg = "unknown directive " + strings.Fields(c.Text)[0] + ": //flare:allow <reason> is the only flare directive"
					}
					d.malformed = append(d.malformed, Diagnostic{Pos: pos, Analyzer: "directive", Message: msg})
					continue
				}
				lines := d.allowLines[pos.Filename]
				if lines == nil {
					lines = make(map[int]*allowSite)
					d.allowLines[pos.Filename] = lines
				}
				lines[pos.Line] = &allowSite{pos: pos, reason: reason}
			}
		}
	}
	return d
}
