// The slotwrite analyzer: mechanizes the "disjoint slots + ordered
// fold" pattern every parallel fan-out in this tree hand-rolls
// (cellsim runMany, oneapi RunBAIRounds, the flaresuite matrix runner).
//
// The contract (documented on sim.WorkerPool): workers may write into
// a shared results slice only at the element owned by the input index
// they were handed, so the writes are disjoint by construction and the
// caller's in-order fold is deterministic without synchronization. Two
// scopes are checked:
//
//   - every RunRange(lo, hi int) method — the sim.RangeRunner
//     contract. The only sanctioned index is the variable of a
//     `for i := lo; i < hi; i++` loop over the handed range.
//   - the body of every goroutine launched by a //flare:allow-waived
//     go statement (the waiver is how a worker-pool fan-out announces
//     itself to the determinism analyzer). There the sanctioned index
//     is the variable of a `range` over a channel — the job index the
//     pool feeds the worker.
//
// Within a scope, any store through an index expression whose base is
// shared (not allocated inside the scope) must use a sanctioned index
// variable, bare: out[0], out[i+1], out[j] for a private counter j are
// findings. Stores into scope-local slices are free.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SlotWrite runs everywhere: RunRange implementations live in wall-
// clock packages (oneapi, flaresuite) too.
var SlotWrite = &Analyzer{
	Name: "slotwrite",
	Doc: "verifies worker-pool goroutines (RunRange methods and //flare:allow-waived go " +
		"statements) store into shared slices only at the input-index slot, keeping " +
		"parallel writes disjoint and the ordered fold deterministic",
	Run: runSlotWrite,
}

func runSlotWrite(pass *Pass) {
	g := buildCallGraph(pass)
	for _, fd := range g.decls {
		if isRunRange(pass, fd) {
			lo := pass.Info.Defs[paramIdent(fd, 0)]
			hi := pass.Info.Defs[paramIdent(fd, 1)]
			sc := newSlotScope(pass, "RunRange")
			sc.collectRangeLoopVars(fd.Body, lo, hi)
			sc.check(fd.Body)
		}
		// Waived go statements: the worker-pool fan-out shape.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok || !pass.WaivedAt(gs.Pos()) {
				return true
			}
			var body *ast.BlockStmt
			switch fun := unparen(gs.Call.Fun).(type) {
			case *ast.FuncLit:
				body = fun.Body
			default:
				// go p.work(...): follow the static callee so the
				// pool's worker body is in scope too.
				if fn, kind := classifyCall(pass.Info, gs.Call); kind == callStatic {
					if decl := g.declOf[fn]; decl != nil {
						body = decl.Body
					}
				}
			}
			if body == nil {
				return true
			}
			sc := newSlotScope(pass, "worker goroutine")
			sc.collectChanRangeVars(body)
			sc.check(body)
			return true
		})
	}
}

// isRunRange matches the sim.RangeRunner shape: a method or function
// named RunRange taking exactly (lo, hi int).
func isRunRange(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Name.Name != "RunRange" {
		return false
	}
	fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Params().Len() != 2 || sig.Results().Len() != 0 {
		return false
	}
	for i := 0; i < 2; i++ {
		b, ok := sig.Params().At(i).Type().Underlying().(*types.Basic)
		if !ok || b.Kind() != types.Int {
			return false
		}
	}
	return true
}

// paramIdent returns the i-th parameter name of fd (flattening grouped
// parameters), or nil.
func paramIdent(fd *ast.FuncDecl, i int) *ast.Ident {
	n := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if n == i {
				return name
			}
			n++
		}
	}
	return nil
}

// slotScope checks one worker scope.
type slotScope struct {
	pass *Pass
	kind string
	// indexVars are the sanctioned input-index variables.
	indexVars map[types.Object]bool
	// owned are slice variables allocated inside the scope; stores
	// into them are private.
	owned map[types.Object]bool
}

func newSlotScope(pass *Pass, kind string) *slotScope {
	return &slotScope{
		pass:      pass,
		kind:      kind,
		indexVars: map[types.Object]bool{},
		owned:     map[types.Object]bool{},
	}
}

// collectRangeLoopVars sanctions the i of every `for i := lo; i < hi;
// i++` over the handed [lo, hi) range.
func (sc *slotScope) collectRangeLoopVars(body *ast.BlockStmt, lo, hi types.Object) {
	if lo == nil || hi == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		fs, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		assign, ok := fs.Init.(*ast.AssignStmt)
		if !ok || assign.Tok != token.DEFINE || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
			return true
		}
		iv, ok := assign.Lhs[0].(*ast.Ident)
		if !ok || !sc.usesObj(assign.Rhs[0], lo) {
			return true
		}
		cond, ok := fs.Cond.(*ast.BinaryExpr)
		if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) || !sc.usesObj(cond.Y, hi) {
			return true
		}
		if obj := sc.pass.Info.Defs[iv]; obj != nil {
			sc.indexVars[obj] = true
		}
		return true
	})
}

// collectChanRangeVars sanctions the i of every `for i := range ch`
// over a channel — the job index a pool feeds its workers.
func (sc *slotScope) collectChanRangeVars(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := sc.pass.Info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isChan := t.Underlying().(*types.Chan); !isChan {
			return true
		}
		if id, ok := rs.Key.(*ast.Ident); ok {
			if obj := sc.pass.Info.Defs[id]; obj != nil {
				sc.indexVars[obj] = true
			}
		}
		return true
	})
}

// usesObj reports whether e is (or trivially wraps) a use of obj.
func (sc *slotScope) usesObj(e ast.Expr, obj types.Object) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && sc.pass.Info.Uses[id] == obj
}

// check walks the scope body for shared-slice stores.
func (sc *slotScope) check(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // a nested goroutine is its own scope
		case *ast.AssignStmt:
			// Locally allocated slices are private to the scope.
			if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && isLocalAlloc(n.Rhs[i]) {
						if obj := sc.pass.Info.Defs[id]; obj != nil {
							sc.owned[obj] = true
						}
					}
				}
			}
			for _, lhs := range n.Lhs {
				sc.checkStore(lhs)
			}
		case *ast.IncDecStmt:
			sc.checkStore(n.X)
		}
		return true
	})
}

// isLocalAlloc recognizes make(...), composite literals, and &T{...}.
func isLocalAlloc(e ast.Expr) bool {
	switch e := unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := e.X.(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := unparen(e.Fun).(*ast.Ident); ok && (id.Name == "make" || id.Name == "new") {
			return true
		}
	}
	return false
}

// checkStore flags a store through an index expression on a shared
// slice whose index is not a sanctioned input-index variable.
func (sc *slotScope) checkStore(lhs ast.Expr) {
	ix, ok := unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	// Only slice/array bases: map stores are a different hazard
	// (determinism and the race detector own it).
	baseType := sc.pass.Info.TypeOf(ix.X)
	if baseType == nil {
		return
	}
	switch deref(baseType).Underlying().(type) {
	case *types.Slice, *types.Array:
	default:
		return
	}
	root := rootIdent(ix.X)
	if root != nil {
		if obj := sc.pass.Info.Uses[root]; obj != nil && sc.owned[obj] {
			return
		}
	}
	if id, ok := unparen(ix.Index).(*ast.Ident); ok {
		if obj := sc.pass.Info.Uses[id]; obj != nil && sc.indexVars[obj] {
			return
		}
	}
	sc.pass.Reportf(lhs.Pos(),
		"shared-slice store %s in a %s indexes by %s, not the input-index variable: parallel slots must stay disjoint for the ordered fold to be deterministic",
		exprString(ix.X)+"["+exprString(ix.Index)+"]", sc.kind, exprString(ix.Index))
}
