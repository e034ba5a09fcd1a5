// Package lint holds the checks on this module's source that no
// runtime test can make. The one in non-test code is the lock-order
// walk, the control plane's mutex hierarchy (lockranks.go): a lock
// taken out of order deadlocks only under a contention no test
// arranges, so TestLockOrder type-checks the module (load.go) and walks
// every function. The import DAG and the single-sourced flare-trace
// schema are plain tests in this package (TestLayering,
// TestObsDiscipline). DESIGN.md §12 has the injection table each check
// rests on.
//
// The walk: for every function it simulates the held-lock set along a
// source-order walk of the body: sync.Mutex/RWMutex Lock/RLock sites
// on ranked mutexes push their class, Unlock/RUnlock sites pop it, and
// a deferred unlock holds the class to function exit. Acquiring a
// class whose rank is >= the rank of any held class is a finding — the
// hierarchy demands strictly descending acquisition, and equal rank is
// the self-deadlock/AB-BA shape that two cellState locks produce
// unless the code imposes a global order itself (Handover does, by
// cell ID, and lockExceptions says so).
//
// Calls propagate: at a call site with a non-empty held set, the
// callee's transitive acquisition set (memoized over the intra-package
// call graph) is checked against every held class, so a helper that
// takes Server.mu is flagged when invoked under cellState.mu even
// though neither function is wrong in isolation. Interface and
// func-value calls are an explicit frontier: they contribute nothing,
// which is sound for the tree because the control plane never hands a
// locked receiver across an interface edge.
//
// Control flow is approximated conservatively in the direction of
// silence: branches are walked with a copy of the held set and their
// effects discarded afterwards (lock/unlock is balanced within a
// branch in this tree), goroutine bodies start empty, and function
// literals are walked with the held set at their definition point,
// because a closure handed to a visitor runs under the locks its
// definer holds.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// A lockFinding is one acquisition against the hierarchy: Acquired
// taken while Held was, in function Func of package Pkg.
type lockFinding struct {
	Pos            token.Position
	Pkg, Func      string
	Acquired, Held lockClass
	Msg            string
}

func (f lockFinding) String() string { return fmt.Sprintf("%s: %s", f.Pos, f.Msg) }

// lockOrder walks every function of pkg against ranks and returns the
// findings in source order.
func lockOrder(pkg *checkedPackage, ranks []lockClass) []lockFinding {
	w := &lockWalker{
		pkg:   pkg,
		ranks: ranks,
		graph: buildCallGraph(pkg),
		acq:   make(map[*types.Func]map[int]token.Pos),
	}
	for _, fd := range w.graph.decls {
		w.stmt(fd.Body, map[int]token.Pos{}, funcName(pkg.Info.Defs[fd.Name].(*types.Func)))
	}
	return w.findings
}

// excuse splits findings into those no exception covers and the
// exceptions that cover none.
func excuse(findings []lockFinding, exceptions []lockException) (uncovered []lockFinding, stale []lockException) {
	used := make([]bool, len(exceptions))
	for _, f := range findings {
		covered := false
		for i, e := range exceptions {
			if e.Pkg == f.Pkg && e.Func == f.Func && e.Class == f.Acquired.String() && e.Class == f.Held.String() {
				used[i], covered = true, true
			}
		}
		if !covered {
			uncovered = append(uncovered, f)
		}
	}
	for i, e := range exceptions {
		if !used[i] {
			stale = append(stale, e)
		}
	}
	return uncovered, stale
}

// funcName names a declared function "F", "T.M" or "(*T).M", the form
// a lockException's Func takes.
func funcName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	t := types.TypeString(recv.Type(), func(*types.Package) string { return "" })
	if strings.HasPrefix(t, "*") {
		t = "(" + t + ")"
	}
	return t + "." + fn.Name()
}

// lockOp classifies a call as a lock acquisition or release.
type lockOp int

const (
	opNone lockOp = iota
	opLock
	opUnlock
)

type lockWalker struct {
	pkg   *checkedPackage
	ranks []lockClass
	graph *callGraph
	// acq memoizes each function's transitive acquisition set:
	// class index -> position of the acquiring Lock call. A nil entry
	// marks in-progress computation (recursion breaks to empty).
	acq      map[*types.Func]map[int]token.Pos
	findings []lockFinding
}

// report records that fnName acquires class idx at pos while holding
// class h.
func (w *lockWalker) report(pos token.Pos, fnName string, idx, h int, format string, args ...any) {
	w.findings = append(w.findings, lockFinding{
		Pos:      w.pkg.Fset.Position(pos),
		Pkg:      w.pkg.Path,
		Func:     fnName,
		Acquired: w.ranks[idx],
		Held:     w.ranks[h],
		Msg:      fmt.Sprintf(format, args...),
	})
}

// stmt walks one statement, mutating held (class index -> acquisition
// position) for straight-line effects and cloning it for branches.
func (w *lockWalker) stmt(s ast.Stmt, held map[int]token.Pos, fnName string) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, sub := range s.List {
			w.stmt(sub, held, fnName)
		}
	case *ast.IfStmt:
		w.stmt(s.Init, held, fnName)
		w.exprs(s.Cond, held, fnName)
		w.stmt(s.Body, clonePos(held), fnName)
		w.stmt(s.Else, clonePos(held), fnName)
	case *ast.ForStmt:
		w.stmt(s.Init, held, fnName)
		w.exprs(s.Cond, held, fnName)
		inner := clonePos(held)
		w.stmt(s.Body, inner, fnName)
		w.stmt(s.Post, inner, fnName)
	case *ast.RangeStmt:
		w.exprs(s.X, held, fnName)
		w.stmt(s.Body, clonePos(held), fnName)
	case *ast.SwitchStmt:
		w.stmt(s.Init, held, fnName)
		w.exprs(s.Tag, held, fnName)
		w.stmt(s.Body, clonePos(held), fnName)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, held, fnName)
		w.stmt(s.Assign, held, fnName)
		w.stmt(s.Body, clonePos(held), fnName)
	case *ast.SelectStmt:
		w.stmt(s.Body, clonePos(held), fnName)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.exprs(e, held, fnName)
		}
		inner := clonePos(held)
		for _, sub := range s.Body {
			w.stmt(sub, inner, fnName)
		}
	case *ast.CommClause:
		w.stmt(s.Comm, held, fnName)
		inner := clonePos(held)
		for _, sub := range s.Body {
			w.stmt(sub, inner, fnName)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held, fnName)
	case *ast.DeferStmt:
		// A deferred unlock keeps the class held to function exit —
		// exactly what the walk models by not removing it. Any other
		// deferred work runs at exit under an unknowable held set;
		// skip it.
	case *ast.GoStmt:
		// A new goroutine starts with nothing held. Its body (if a
		// literal) is walked fresh; a named callee is covered by its
		// own declaration walk.
		if lit, ok := unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.stmt(lit.Body, map[int]token.Pos{}, fnName)
		}
		for _, arg := range s.Call.Args {
			w.exprs(arg, held, fnName)
		}
	default:
		// Expression-bearing statements: scan for calls in source
		// order.
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				w.call(n, held, fnName)
				return true // still descend: nested calls in args
			case *ast.FuncLit:
				// Walked with the held set at the definition point:
				// closures here are typically invoked on the caller's
				// behalf while its locks are held (a visitor).
				w.stmt(n.Body, clonePos(held), fnName)
				return false
			case ast.Stmt:
				if _, isExpr := n.(*ast.ExprStmt); !isExpr && n != s {
					w.stmt(n, held, fnName)
					return false
				}
			}
			return true
		})
	}
}

// exprs scans an expression for calls and function literals.
func (w *lockWalker) exprs(e ast.Expr, held map[int]token.Pos, fnName string) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			w.call(n, held, fnName)
		case *ast.FuncLit:
			w.stmt(n.Body, clonePos(held), fnName)
			return false
		}
		return true
	})
}

// call handles one call site: a ranked Lock/Unlock mutates held; a
// statically resolved callee is checked for transitive acquisitions
// against the held set.
func (w *lockWalker) call(call *ast.CallExpr, held map[int]token.Pos, fnName string) {
	if idx, op := w.lockOpOf(call); op != opNone {
		switch op {
		case opLock:
			for h := range held {
				if w.ranks[h].Rank <= w.ranks[idx].Rank {
					w.report(call.Pos(), fnName, idx, h,
						"lock order inversion in %s: acquiring %s (rank %d) while holding %s (rank %d); the declared order acquires strictly higher ranks first",
						fnName, w.ranks[idx], w.ranks[idx].Rank, w.ranks[h], w.ranks[h].Rank)
				}
			}
			held[idx] = call.Pos()
		case opUnlock:
			delete(held, idx)
		}
		return
	}
	if len(held) == 0 {
		return
	}
	fn, kind := classifyCall(w.pkg.Info, call)
	if kind != callStatic {
		return
	}
	for idx := range w.transAcquires(fn) {
		for h := range held {
			if w.ranks[h].Rank <= w.ranks[idx].Rank {
				w.report(call.Pos(), fnName, idx, h,
					"lock order inversion in %s: call to %s acquires %s (rank %d) while holding %s (rank %d)",
					fnName, fn.Name(), w.ranks[idx], w.ranks[idx].Rank, w.ranks[h], w.ranks[h].Rank)
			}
		}
	}
}

// transAcquires returns the set of ranked classes fn acquires anywhere
// in its body or in any statically reachable intra-package callee.
func (w *lockWalker) transAcquires(fn *types.Func) map[int]token.Pos {
	if m, ok := w.acq[fn]; ok {
		return m // nil while in progress: recursion contributes nothing
	}
	w.acq[fn] = nil
	out := map[int]token.Pos{}
	if fd := w.graph.declOf[fn]; fd != nil {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if idx, op := w.lockOpOf(call); op == opLock {
				if _, seen := out[idx]; !seen {
					out[idx] = call.Pos()
				}
				return true
			}
			if callee, kind := classifyCall(w.pkg.Info, call); kind == callStatic {
				for idx, pos := range w.transAcquires(callee) {
					if _, seen := out[idx]; !seen {
						out[idx] = pos
					}
				}
			}
			return true
		})
	}
	w.acq[fn] = out
	return out
}

// lockOpOf recognizes m.Lock()/m.RLock()/m.TryLock() and
// m.Unlock()/m.RUnlock() on a ranked sync mutex and returns the class
// index.
func (w *lockWalker) lockOpOf(call *ast.CallExpr) (int, lockOp) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0, opNone
	}
	var op lockOp
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		op = opLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return 0, opNone
	}
	fn, ok := w.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return 0, opNone
	}
	idx, ok := w.classOf(sel.X)
	if !ok {
		return 0, opNone
	}
	return idx, op
}

// classOf resolves the mutex expression (the x in x.Lock()) to a rank
// table entry.
func (w *lockWalker) classOf(x ast.Expr) (int, bool) {
	switch x := unparen(x).(type) {
	case *ast.SelectorExpr:
		// A struct field: s.mu, c.mu, s.cells[id].mu, ...
		named := namedOf(w.pkg.Info.TypeOf(x.X))
		if named == nil || named.Obj().Pkg() == nil {
			return 0, false
		}
		return w.lookup(named.Obj().Pkg().Path(), named.Obj().Name(), x.Sel.Name)
	case *ast.Ident:
		// A package-level mutex variable.
		v, ok := w.pkg.Info.Uses[x].(*types.Var)
		if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
			return 0, false
		}
		return w.lookup(v.Pkg().Path(), "", v.Name())
	}
	return 0, false
}

func (w *lockWalker) lookup(pkg, typ, field string) (int, bool) {
	for i, c := range w.ranks {
		if c.Pkg == pkg && c.Type == typ && c.Field == field {
			return i, true
		}
	}
	return 0, false
}

func clonePos(m map[int]token.Pos) map[int]token.Pos {
	out := make(map[int]token.Pos, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
