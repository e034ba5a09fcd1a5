package lint

import (
	"go/ast"
	"go/types"
)

// Determinism flags the constructs that break byte-exact replay when
// they appear inside the sim-clock domain:
//
//   - `range` over a map: iteration order is deliberately randomized by
//     the runtime, so anything the loop feeds into state or output
//     diverges between runs. Iterate a sorted key slice instead, or
//     annotate the loop with //flare:allow <reason> if the body is
//     provably order-independent.
//   - time.Now / time.Since: wall-clock reads inside simulated time.
//     Route the value through an injected clock (see
//     core.Controller.SetWallClock) or annotate why the reading is
//     observational only.
//   - the global math/rand source (rand.Intn, rand.Float64, ...):
//     draws interleave across goroutines and runs. Use a seeded
//     *rand.Rand owned by the component (internal/sim.RNG).
//
// These are the hazards a test run can pass by luck — a map that
// happens to iterate in insertion order, a wall clock that happens to
// agree — so no runtime suite holds them. Concurrency hazards are left
// to the tests that do: the lockstep suites and `go test -race`.
//
// The analyzer is syntax+types only; it does not attempt to prove that
// a flagged construct actually feeds state. That is what the allow
// directive's mandatory reason is for.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbids unordered map ranges, wall-clock reads (time.Now/Since) and global math/rand draws " +
		"in sim-clock packages; suppress only with //flare:allow <reason>",
	Run: runDeterminism,
}

// globalRandAllowed lists math/rand(/v2) functions that do not touch
// the global source: constructors for explicitly-seeded generators.
var globalRandAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runDeterminism(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if t := pass.Info.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						pass.Reportf(n.For,
							"range over map %s has unspecified order in a sim-clock package; iterate sorted keys or annotate //flare:allow <reason>", t)
					}
				}
			case *ast.SelectorExpr:
				fn, ok := pass.Info.Uses[n.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				// Methods (e.g. (*rand.Rand).Intn, time.Time.Sub) are
				// fine: the generator is component-owned and seeded, and
				// a time value was read somewhere else.
				if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
					return true
				}
				switch fn.Pkg().Path() {
				case "time":
					if name := fn.Name(); name == "Now" || name == "Since" {
						pass.Reportf(n.Pos(),
							"time.%s reads the wall clock in a sim-clock package; inject a clock or annotate //flare:allow <reason>", name)
					}
				case "math/rand", "math/rand/v2":
					if !globalRandAllowed[fn.Name()] {
						pass.Reportf(n.Pos(),
							"global math/rand.%s is unseeded shared state in a sim-clock package; use a component-owned seeded *rand.Rand", fn.Name())
					}
				}
			}
			return true
		})
	}
}
