package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestObsDiscipline keeps the flare-trace schema single-sourced: no
// non-test Go file in the repository outside internal/obs (bench/
// included) writes an obs.Event composite literal. Every other layer
// builds events through the typed constructors of internal/obs, so a
// field rename or a change of meaning touches one package. A literal
// compiles and runs — even one that forgets a field fails no other
// test — so this scan is its only guard. It reads syntax alone: a
// literal typed <obs import name>.Event, or one whose type is elided
// inside a slice, array or map literal of Event or *Event.
func TestObsDiscipline(t *testing.T) {
	hits, files, err := obsEventLiterals(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range hits {
		t.Errorf("%s: obs.Event literal outside internal/obs; use its typed constructors", pos)
	}
	if files < 100 {
		t.Fatalf("suspiciously few Go files scanned: %d", files)
	}
}

// TestObsDisciplineAllowedSubtree runs the scan over a fixture tree:
// the literals under its internal/obs are legal (the typed constructors
// must be able to build events), and the same constructs under any
// other directory are each reported — value, pointer, and elided inside
// a slice and a map of events — while constructor calls are not.
func TestObsDisciplineAllowedSubtree(t *testing.T) {
	root := filepath.Join("testdata", "obsdiscipline")
	hits, files, err := obsEventLiterals(root)
	if err != nil {
		t.Fatal(err)
	}
	if files != 1 {
		t.Fatalf("parsed %d fixture files, want 1 (internal/obs is skipped unread)", files)
	}
	want := map[int]bool{10: true, 11: true, 14: true, 17: true}
	for _, pos := range hits {
		if filepath.Base(pos.Filename) != "outside.go" || !want[pos.Line] {
			t.Errorf("%s: unexpected report", pos)
			continue
		}
		delete(want, pos.Line)
	}
	for line := range want {
		t.Errorf("outside.go:%d: literal not reported", line)
	}
}

// obsEventLiterals parses every non-test Go file under root, except
// those under root/internal/obs, testdata and dot directories, and
// returns the position of each obs.Event composite literal, with the
// number of files parsed.
func obsEventLiterals(root string) ([]token.Position, int, error) {
	obsDir := filepath.Join(root, "internal", "obs")
	fset := token.NewFileSet()
	var hits []token.Position
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == obsDir || (path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), "."))) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		obs := obsImportName(f)
		if obs == "" {
			return nil
		}
		report := func(lit *ast.CompositeLit) {
			hits = append(hits, fset.Position(lit.Pos()))
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			if isObsEvent(lit.Type, obs) {
				report(lit)
			}
			var elt ast.Expr
			switch ty := lit.Type.(type) {
			case *ast.ArrayType:
				elt = ty.Elt
			case *ast.MapType:
				elt = ty.Value
			}
			if star, ok := elt.(*ast.StarExpr); ok {
				elt = star.X
			}
			if !isObsEvent(elt, obs) {
				return true
			}
			for _, e := range lit.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if el, ok := e.(*ast.CompositeLit); ok && el.Type == nil {
					report(el)
				}
			}
			return true
		})
		return nil
	})
	return hits, files, err
}

// obsImportName is the name a file imports internal/obs under, or "".
func obsImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p != ModulePath+"/internal/obs" {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return "obs"
	}
	return ""
}

// isObsEvent reports whether x is the type expression <obs>.Event.
func isObsEvent(x ast.Expr, obs string) bool {
	sel, ok := x.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Event" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == obs
}
