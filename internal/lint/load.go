// Package loading. The lock-order walk needs full type information, and
// this module depends on nothing outside the standard library, so the
// loader drives the stock toolchain directly:
//
//  1. `go list -json ./...` enumerates the module's packages (and their
//     import edges) exactly as the build would,
//  2. each package is parsed with go/parser and type-checked with
//     go/types in dependency order, and
//  3. the standard library is served by the source importer
//     (go/importer "source" mode), which type-checks it from source on
//     demand and caches the results.
//
// The whole module checks in a few seconds; positions and types are the
// compiler's own, so findings match what `go build` sees.
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
)

// A checkedPackage is one loaded, type-checked package.
type checkedPackage struct {
	// Path is the import path (or the fixture name under loadDir).
	Path string
	// Fset is the file set shared by every package of one load.
	Fset *token.FileSet
	// Files are the parsed sources, comments included. Test files are
	// deliberately excluded: the lock hierarchy concerns shipped code.
	Files []*ast.File
	// Types and Info are the type-checker outputs.
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Error      *struct{ Err string }
}

// loadModule loads, parses, and type-checks every package of the module
// rooted at dir, in dependency order.
func loadModule(dir string) ([]*checkedPackage, error) {
	listed, err := goList(dir)
	if err != nil {
		return nil, err
	}
	byPath := make(map[string]*listedPackage, len(listed))
	for _, lp := range listed {
		byPath[lp.ImportPath] = lp
	}

	// Topological order over the module's import edges, so a chained
	// importer can always serve module dependencies from cache.
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
	out := make([]*checkedPackage, 0, len(order))
	for _, lp := range order {
		pkg, err := checkPackage(fset, chain, lp)
		if err != nil {
			return nil, err
		}
		chain.local[lp.ImportPath] = pkg.Types
		out = append(out, pkg)
	}
	return out, nil
}

// loadDir loads a single directory as a standalone package named
// pkgPath — the entry point for fixture packages under testdata (which
// `go list` cannot see). Imports resolve through the source importer.
func loadDir(dir, pkgPath string) (*checkedPackage, error) {
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
	return checkPackage(fset, importer.ForCompiler(fset, "source", nil).(types.ImporterFrom), &listedPackage{
		ImportPath: pkgPath,
		Dir:        dir,
		GoFiles:    files,
	})
}

// goList shells out to `go list -json ./...` and decodes the package
// stream.
func goList(dir string) ([]*listedPackage, error) {
	cmd := exec.Command("go", "list", "-json=ImportPath,Dir,GoFiles,Imports,Error", "./...")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list: %w\n%s", err, stderr.String())
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
func checkPackage(fset *token.FileSet, imp types.ImporterFrom, lp *listedPackage) (*checkedPackage, error) {
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
	return &checkedPackage{
		Path:  lp.ImportPath,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// chainImporter serves already-checked module packages from cache and
// the standard library from the source importer.
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
