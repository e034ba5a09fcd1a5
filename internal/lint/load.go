// Package loading. flarevet needs parsed-with-comments ASTs plus full
// type information, without depending on golang.org/x/tools/go/packages.
// The loader therefore drives the stock toolchain directly:
//
//  1. `go list -json <patterns>` enumerates the packages (and their
//     import edges) exactly as the build would,
//  2. each package is parsed with go/parser and type-checked with
//     go/types in dependency order, and
//  3. imports outside the loaded set (the standard library, and module
//     packages a narrow pattern did not select) are satisfied by the
//     stdlib source importer (go/importer "source" mode), which
//     type-checks them from source on demand and caches the results.
//
// The whole module checks in a few seconds; positions and types are the
// compiler's own, so analyzer findings match what `go build` sees.
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path (or the fixture name under linttest).
	Path string
	// Dir is the package directory.
	Dir string
	// Fset is the file set shared by every package of one load.
	Fset *token.FileSet
	// Files are the parsed sources, comments included. Test files are
	// deliberately excluded: the invariants flarevet enforces concern
	// shipped code, and tests routinely (and legitimately) use
	// time.Now, map ranges, and hand-built events.
	Files []*ast.File
	// Types and Info are the type-checker outputs.
	Types *types.Package
	Info  *types.Info
	// Target reports whether the package matched the load patterns, as
	// opposed to being loaded only as an in-module dependency of one
	// that did. Only targets are analyzed.
	Target bool
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Imports    []string
	Error      *struct{ Err string }
}

// LoadPackages loads, parses, and type-checks the packages matching the
// `go list` patterns, rooted at dir (the module root for "./...").
// Packages are returned in dependency order.
//
// For narrow patterns (anything but the whole module), the in-module
// dependency closure is loaded too, marked Target=false, for type
// identity: a module package reached both directly and through the
// source importer would otherwise be type-checked twice, and its types
// (sim.RNG passed from cellsim/driver into abr, say) would not match
// their own copies. Analyzers look at one package at a time, so a
// narrow run reports exactly what the whole-module run reports for the
// same packages.
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wholeModule := len(patterns) == 1 && patterns[0] == "./..."

	listed, err := goList(dir, false, patterns)
	if err != nil {
		return nil, err
	}
	targets := make(map[string]bool, len(listed))
	for _, lp := range listed {
		targets[lp.ImportPath] = true
	}
	if !wholeModule {
		// Widen to the in-module dependency closure.
		deps, err := goList(dir, true, patterns)
		if err != nil {
			return nil, err
		}
		merged := listed[:0]
		for _, lp := range deps {
			if strings.HasPrefix(lp.ImportPath, ModulePath) {
				merged = append(merged, lp)
			}
		}
		listed = merged
	}

	byPath := make(map[string]*listedPackage, len(listed))
	for _, lp := range listed {
		byPath[lp.ImportPath] = lp
	}

	// Topological order over the in-target import edges, so a chained
	// importer can always serve in-target dependencies from cache.
	var order []*listedPackage
	state := make(map[string]int, len(listed)) // 0 new, 1 visiting, 2 done
	var visit func(lp *listedPackage) error
	visit = func(lp *listedPackage) error {
		switch state[lp.ImportPath] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("lint: import cycle through %s", lp.ImportPath)
		}
		state[lp.ImportPath] = 1
		for _, imp := range lp.Imports {
			if dep, ok := byPath[imp]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[lp.ImportPath] = 2
		order = append(order, lp)
		return nil
	}
	for _, lp := range listed {
		if err := visit(lp); err != nil {
			return nil, err
		}
	}

	fset := token.NewFileSet()
	chain := &chainImporter{
		local:    make(map[string]*types.Package, len(order)),
		fallback: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	out := make([]*Package, 0, len(order))
	for _, lp := range order {
		pkg, err := checkPackage(fset, chain, lp)
		if err != nil {
			return nil, err
		}
		pkg.Target = targets[lp.ImportPath]
		chain.local[lp.ImportPath] = pkg.Types
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDir loads a single directory as a standalone package named
// pkgPath — the analysistest-style entry point for fixture packages
// under testdata (which `go list` cannot see). Imports resolve through
// the source importer, so fixtures may import both the standard library
// and real module packages.
func LoadDir(dir, pkgPath string) (*Package, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	if len(matches) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []string
	for _, m := range matches {
		files = append(files, filepath.Base(m))
	}
	fset := token.NewFileSet()
	chain := &chainImporter{
		local:    map[string]*types.Package{},
		fallback: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	pkg, err := checkPackage(fset, chain, &listedPackage{
		ImportPath: pkgPath,
		Dir:        dir,
		GoFiles:    files,
	})
	if err != nil {
		return nil, err
	}
	pkg.Target = true
	return pkg, nil
}

// goList shells out to `go list -json` (optionally -deps for the
// transitive closure) and decodes the package stream.
func goList(dir string, deps bool, patterns []string) ([]*listedPackage, error) {
	args := []string{"list", "-json=ImportPath,Dir,Name,GoFiles,Imports,Error"}
	if deps {
		args = append(args, "-deps")
	}
	args = append(append(args, "--"), patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %v: %w\n%s", patterns, err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var out []*listedPackage
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: go list %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.GoFiles) == 0 {
			continue // test-only packages and the like
		}
		out = append(out, lp)
	}
	return out, nil
}

// checkPackage parses and type-checks one package.
func checkPackage(fset *token.FileSet, imp types.ImporterFrom, lp *listedPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", lp.ImportPath, err)
	}
	return &Package{
		Path:  lp.ImportPath,
		Dir:   lp.Dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// chainImporter serves already-checked target packages from cache and
// everything else (stdlib, unselected module packages) from the source
// importer.
type chainImporter struct {
	local    map[string]*types.Package
	fallback types.ImporterFrom
}

// Import implements types.Importer.
func (c *chainImporter) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (c *chainImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := c.local[path]; ok {
		return p, nil
	}
	return c.fallback.ImportFrom(path, dir, mode)
}
