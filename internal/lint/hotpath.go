package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotpath is the static complement to the AllocsPerRun pins (a TTI, a
// BAI round, a whole engine run, Emit): functions whose doc comment carries
// //flare:hotpath (the Sim tick loops, the scheduler argmax, the MCKP
// sweep, Bearer.tick, Recorder.Emit) must not contain
//
//   - capturing closures (each capture forces a heap-allocated context;
//     PR 3 replaced the per-ACK closure with a method value for exactly
//     this reason),
//   - fmt printing (reflection, interface boxing, and an implicit
//     []any allocation per call),
//   - string concatenation inside loops (quadratic garbage),
//   - map/slice composite literals inside loops (one heap allocation
//     per iteration), or
//   - defer (per-call bookkeeping, and it hides work at exit).
//
// v2 makes the budget transitive: every function in every analyzed
// package gets an allocation summary (a cross-package fact), and each
// annotated root walks its static call closure, reporting a callee's
// allocation at the callee's site even when the root itself stays
// clean. Interface calls are the closure's frontier: the dynamic
// callee is unknowable, so the call itself is reported as opaque
// unless a reasoned //flare:allow on the call site vouches for the
// implementations. Func-value calls (pre-bound callbacks, the
// scheduler's filter argument) are deliberately silent — binding them
// is the tree's standard de-allocation move and their targets are
// still summarized wherever they are declared.
//
// The pins catch regressions after the fact on covered configs; this
// analyzer rejects the construct at review time on every config.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc: "forbids capturing closures, fmt printing, in-loop string concatenation and map/slice " +
		"literals, and defer inside functions annotated //flare:hotpath and everything " +
		"statically reachable from them; interface calls on that closure are reported as " +
		"opaque unless waived",
	Run: runHotpath,
}

// hotKind is the allocation-site taxonomy.
type hotKind int

const (
	hotDefer hotKind = iota
	hotClosure
	hotFmt
	hotConcat
	hotLit
	hotIface
)

// hotSite is one allocation (or opacity) site inside a function.
type hotSite struct {
	pos    token.Pos
	kind   hotKind
	detail string // captures list, fmt verb, literal kind, interface method
}

// hotCall is one statically resolved call edge.
type hotCall struct {
	callee *types.Func
}

// hotSummary is the per-function fact the fact store carries across
// packages.
type hotSummary struct {
	name  string // display name, receiver included, package-local
	pkg   *types.Package
	hot   bool
	sites []hotSite
	calls []hotCall
}

func runHotpath(pass *Pass) {
	g := buildCallGraph(pass)

	// Summarize every function (the fact), hot or not.
	var roots []*hotSummary
	for _, fd := range g.decls {
		fn := g.funcOf[fd]
		sum := summarizeHot(pass, fd, fn)
		pass.store.summaries[fn] = sum
		if sum.hot {
			roots = append(roots, sum)
		}
	}

	// Each annotated root reports over its static call closure.
	for _, root := range roots {
		visited := map[*hotSummary]bool{root: true}
		reportHot(pass, root, root, nil, visited)
	}
}

// reportHot emits sum's sites (path is the call chain from root,
// excluding both endpoints' duplication: nil at the root itself) and
// recurses into summarized callees.
func reportHot(pass *Pass, root, sum *hotSummary, path []string, visited map[*hotSummary]bool) {
	for _, site := range sum.sites {
		if !pass.store.claimReport("hotpath", pass.Fset.Position(site.pos)) {
			continue
		}
		pass.Reportf(site.pos, "%s", renderHot(pass, root, sum, site, path))
	}
	for _, call := range sum.calls {
		callee := pass.store.summaries[call.callee]
		if callee == nil || visited[callee] {
			continue
		}
		visited[callee] = true
		sub := make([]string, 0, len(path)+1)
		sub = append(append(sub, path...), displayName(pass, callee))
		reportHot(pass, root, callee, sub, visited)
	}
}

// renderHot formats one finding. Root-level sites keep the v1 message
// shapes; transitive sites name the containing function and the chain
// from the annotated root.
func renderHot(pass *Pass, root, sum *hotSummary, site hotSite, path []string) string {
	if len(path) == 0 {
		switch site.kind {
		case hotDefer:
			return fmt.Sprintf("defer in //flare:hotpath function %s", sum.name)
		case hotClosure:
			return fmt.Sprintf("capturing closure in //flare:hotpath function %s (captures %s); hoist it or use a method value",
				sum.name, site.detail)
		case hotFmt:
			return fmt.Sprintf("fmt.%s in //flare:hotpath function %s", site.detail, sum.name)
		case hotConcat:
			return fmt.Sprintf("string concatenation in loop in //flare:hotpath function %s; use a reused []byte buffer", sum.name)
		case hotLit:
			return fmt.Sprintf("%s literal in loop in //flare:hotpath function %s allocates per iteration; hoist it or reuse a buffer",
				site.detail, sum.name)
		case hotIface:
			return fmt.Sprintf("opaque interface call %s in //flare:hotpath function %s: the allocation budget cannot follow it; waive with //flare:allow <reason> naming the implementations, or devirtualize",
				site.detail, sum.name)
		}
	}
	via := strings.Join(path, " -> ")
	where := displayName(pass, sum)
	rootName := root.name
	switch site.kind {
	case hotDefer:
		return fmt.Sprintf("defer in %s, reachable from //flare:hotpath function %s via %s", where, rootName, via)
	case hotClosure:
		return fmt.Sprintf("capturing closure in %s (captures %s), reachable from //flare:hotpath function %s via %s; hoist it or use a method value",
			where, site.detail, rootName, via)
	case hotFmt:
		return fmt.Sprintf("fmt.%s in %s, reachable from //flare:hotpath function %s via %s", site.detail, where, rootName, via)
	case hotConcat:
		return fmt.Sprintf("string concatenation in loop in %s, reachable from //flare:hotpath function %s via %s; use a reused []byte buffer",
			where, rootName, via)
	case hotLit:
		return fmt.Sprintf("%s literal in loop in %s allocates per iteration, reachable from //flare:hotpath function %s via %s",
			site.detail, where, rootName, via)
	case hotIface:
		return fmt.Sprintf("opaque interface call %s in %s, reachable from //flare:hotpath function %s via %s: waive with //flare:allow <reason> or devirtualize",
			site.detail, where, rootName, via)
	}
	return ""
}

// displayName qualifies a summary's name with its package when viewed
// from another package's pass.
func displayName(pass *Pass, sum *hotSummary) string {
	if sum.pkg != nil && sum.pkg != pass.Pkg {
		return sum.pkg.Name() + "." + sum.name
	}
	return sum.name
}

// summarizeHot walks one function body, recording allocation sites,
// opaque interface calls (deduped per method), and static call edges.
func summarizeHot(pass *Pass, fd *ast.FuncDecl, fn *types.Func) *hotSummary {
	sum := &hotSummary{
		name: funcDisplayName(pass, fd, fn),
		pkg:  pass.Pkg,
		hot:  hasHotpathDirective(fd.Doc),
	}
	seenIface := map[string]bool{}
	seenCall := map[*types.Func]bool{}
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.DeferStmt:
			sum.sites = append(sum.sites, hotSite{pos: n.Pos(), kind: hotDefer})
		case *ast.ForStmt, *ast.RangeStmt:
			// Everything under a loop header or body runs per
			// iteration for allocation-accounting purposes.
			walkChildren(n, func(c ast.Node) { walk(c, true) })
			return
		case *ast.FuncLit:
			if caps := captures(pass, fd, n); len(caps) > 0 {
				sum.sites = append(sum.sites, hotSite{pos: n.Pos(), kind: hotClosure, detail: strings.Join(caps, ", ")})
			}
		case *ast.CompositeLit:
			if t := pass.Info.TypeOf(n); inLoop && t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					sum.sites = append(sum.sites, hotSite{pos: n.Pos(), kind: hotLit, detail: "map"})
				case *types.Slice:
					sum.sites = append(sum.sites, hotSite{pos: n.Pos(), kind: hotLit, detail: "slice"})
				}
			}
		case *ast.CallExpr:
			callee, kind := classifyCall(pass.Info, n)
			switch kind {
			case callStatic:
				if callee.Pkg() != nil && callee.Pkg().Path() == "fmt" &&
					strings.Contains(strings.ToLower(callee.Name()), "print") {
					sum.sites = append(sum.sites, hotSite{pos: n.Pos(), kind: hotFmt, detail: callee.Name()})
				} else if !seenCall[callee] {
					seenCall[callee] = true
					sum.calls = append(sum.calls, hotCall{callee: callee})
				}
			case callInterface:
				detail := ifaceCallName(pass, n, callee)
				if !seenIface[detail] {
					seenIface[detail] = true
					sum.sites = append(sum.sites, hotSite{pos: n.Pos(), kind: hotIface, detail: detail})
				}
			}
		case *ast.BinaryExpr:
			if inLoop && n.Op == token.ADD && isString(pass, n.X) {
				sum.sites = append(sum.sites, hotSite{pos: n.Pos(), kind: hotConcat})
			}
		case *ast.AssignStmt:
			if inLoop && n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pass, n.Lhs[0]) {
				sum.sites = append(sum.sites, hotSite{pos: n.Pos(), kind: hotConcat})
			}
		}
		walkChildren(n, func(c ast.Node) { walk(c, inLoop) })
	}
	walk(fd.Body, false)
	return sum
}

// funcDisplayName renders "tick" or "(*Sim).runFast".
func funcDisplayName(pass *Pass, fd *ast.FuncDecl, fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fd.Name.Name
	}
	recv := types.TypeString(sig.Recv().Type(), types.RelativeTo(pass.Pkg))
	return fmt.Sprintf("(%s).%s", recv, fd.Name.Name)
}

// ifaceCallName renders the interface call as the receiver's static
// type plus the method: "context.Context.Err", "driver.Controller.OnBAI".
func ifaceCallName(pass *Pass, call *ast.CallExpr, fn *types.Func) string {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if t := pass.Info.TypeOf(sel.X); t != nil {
			return types.TypeString(t, func(p *types.Package) string { return p.Name() }) + "." + fn.Name()
		}
	}
	return fn.Name()
}

// walkChildren visits n's immediate children once each.
func walkChildren(n ast.Node, visit func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true // enter n itself
		}
		if c != nil {
			visit(c)
		}
		return false // do not descend; visit recurses itself
	})
}

// captures lists the variables a func literal captures from the
// enclosing function: identifiers used inside the literal whose
// definition lies within the enclosing declaration but outside the
// literal (parameters, receiver, locals — not package globals, which
// cost nothing to reference).
func captures(pass *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) []string {
	seen := map[string]bool{}
	var out []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		pos := obj.Pos()
		if pos >= fd.Pos() && pos < fd.End() && !(pos >= lit.Pos() && pos < lit.End()) {
			if !seen[obj.Name()] {
				seen[obj.Name()] = true
				out = append(out, obj.Name())
			}
		}
		return true
	})
	return out
}

// isString reports whether e has (possibly named) string type.
func isString(pass *Pass, e ast.Expr) bool {
	t := pass.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
