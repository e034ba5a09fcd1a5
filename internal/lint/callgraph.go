// The intra-package call graph and call classifier behind lockorder's
// transitive acquisition sets.
//
// Resolution is static and honest about its limits: a call is either
// resolved to the single *types.Func it must invoke (package functions,
// concrete methods), identified as an interface method call (the callee
// set is open; lockorder ignores that frontier explicitly), or
// dynamic (function values, builtins, conversions) and skipped. No
// points-to analysis is attempted: the lock hierarchy is a convention
// about how this tree is written, and the tree is written to be
// resolvable.
package lint

import (
	"go/ast"
	"go/types"
)

// callGraph indexes one package's function declarations.
type callGraph struct {
	// decls lists every function/method with a body, in source order
	// (file order, then declaration order) — lockorder iterates this
	// for deterministic reporting.
	decls []*ast.FuncDecl
	// declOf maps a function's type-checker object to its declaration.
	declOf map[*types.Func]*ast.FuncDecl
}

// buildCallGraph indexes pkg.
func buildCallGraph(pkg *checkedPackage) *callGraph {
	g := &callGraph{declOf: make(map[*types.Func]*ast.FuncDecl)}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.decls = append(g.decls, fd)
			g.declOf[fn] = fd
		}
	}
	return g
}

// callKind classifies a call expression's resolution.
type callKind int

const (
	// callStatic: the callee is the returned *types.Func, always.
	callStatic callKind = iota
	// callInterface: an interface method; the dynamic callee is
	// unknowable without whole-program analysis. The returned
	// *types.Func is the interface method object (for naming).
	callInterface
	// callDynamic: function value, builtin, or conversion — no callee.
	callDynamic
)

// classifyCall resolves who call invokes.
func classifyCall(info *types.Info, call *ast.CallExpr) (*types.Func, callKind) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn, callStatic
		}
		return nil, callDynamic // func-typed variable, builtin, conversion
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil, callDynamic // func-typed struct field
			}
			fn := sel.Obj().(*types.Func)
			if isInterfaceMethod(fn) {
				return fn, callInterface
			}
			return fn, callStatic
		}
		// No Selection: a package-qualified identifier pkg.F.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if isInterfaceMethod(fn) {
				return fn, callInterface
			}
			return fn, callStatic
		}
		return nil, callDynamic
	}
	return nil, callDynamic
}

// isInterfaceMethod reports whether fn is declared on an interface.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// namedOf returns the named type behind t (through one pointer), or
// nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
