package lint

import (
	"go/ast"
	"go/types"
)

// ObsDiscipline keeps the flare-trace schema single-sourced: an
// obs.Event may be built as a composite literal only inside the
// internal/obs subtree. Every other layer goes through the typed
// constructors obs exports (obs.BAISolve, obs.Clamp, obs.Install, ...),
// so a field rename or semantic change touches exactly one package and
// the wire schema, the constructors, and the documentation move
// together — instead of nineteen hand-rolled literals drifting apart.
var ObsDiscipline = NewObsDiscipline(ObsPackage, ObsPackage)

// NewObsDiscipline builds the analyzer for an explicit event package:
// eventPkg is where the Event type lives, allowedPkg the subtree whose
// literals are legal (tests point these at fixtures).
func NewObsDiscipline(eventPkg, allowedPkg string) *Analyzer {
	a := &Analyzer{
		Name: "obsdiscipline",
		Doc:  "obs.Event composite literals are legal only inside internal/obs; everywhere else use the typed constructors so the flare-trace schema stays single-sourced",
	}
	a.Run = func(pass *Pass) {
		if pathMatches(allowedPkg, pass.PkgPath) {
			return
		}
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				t := pass.Info.TypeOf(lit)
				if t == nil {
					return true
				}
				named, ok := t.(*types.Named)
				if !ok {
					return true
				}
				obj := named.Obj()
				if obj.Name() == "Event" && obj.Pkg() != nil && obj.Pkg().Path() == eventPkg {
					pass.Reportf(lit.Pos(),
						"obs.Event literal outside %s; use the typed obs constructors so the trace schema stays single-sourced", eventPkg)
				}
				return true
			})
		}
	}
	return a
}
