// The declared lock hierarchy. The OneAPI control plane acquires its
// mutexes in a strict order; this table is that order made
// machine-readable, and TestLockOrder holds the tree to it: while any
// ranked lock is held, only strictly lower-ranked locks may be
// acquired. Acquiring an equal rank is also a finding — that is
// exactly the Handover both-cells case, where the code must impose a
// global order (cell ID) itself, and lockExceptions says so.
package lint

import (
	"fmt"
	"path"
)

// modulePath is this module's import path prefix.
const modulePath = "github.com/flare-sim/flare"

// internalPrefix abbreviates the rank table's package paths.
const internalPrefix = modulePath + "/internal/"

// A lockClass names one mutex in the hierarchy: the Field of a struct
// Type in package Pkg (Type == "" for a package-level mutex variable).
// Higher Rank is acquired first. Mutexes not listed here are outside
// the hierarchy and unconstrained.
type lockClass struct {
	Pkg   string
	Type  string
	Field string
	Rank  int
	// Doc says what the lock protects and why it sits at this rank.
	Doc string
}

// String renders "pkg.Type.Field" with the package abbreviated.
func (c lockClass) String() string {
	if c.Type == "" {
		return path.Base(c.Pkg) + "." + c.Field
	}
	return fmt.Sprintf("%s.%s.%s", path.Base(c.Pkg), c.Type, c.Field)
}

// lockRanks is the control plane's declared hierarchy, outermost
// first: Server.mu > cellState.mu > core's scratchPool.mu.
// TestLockOrder and DESIGN.md §12 both read this table.
var lockRanks = []lockClass{
	{
		Pkg: internalPrefix + "oneapi", Type: "Server", Field: "mu", Rank: 30,
		Doc: "guards the cell index and the creation-time defaults (recorder, PCEF, wall clock); read-locked to look a cell up and released before the cell is locked, write-locked for cell creation and for Set*, which re-point every cell under it",
	},
	{
		Pkg: internalPrefix + "oneapi", Type: "cellState", Field: "mu", Rank: 10,
		Doc: "one cell's session state; innermost of the oneapi locks — under it only the solver's scratchPool.mu may be acquired, and both-cells operations (Handover) must lock in global cell-ID order",
	},
	{
		Pkg: internalPrefix + "core", Type: "scratchPool", Field: "mu", Rank: 5,
		Doc: "the exact solver's shared scratch freelist; innermost — taken inside a cell's BAI under cellState.mu, held for one push or pop, never across a solve, and nothing may be acquired while it is held",
	},
}

// A lockException excuses one function for acquiring Class while it
// already holds Class: the equal-rank shape that is a deadlock unless
// the code imposes a global order itself. Reason says what that order
// is. An exception that excuses nothing fails TestLockOrder, so no row
// outlives the code it was written for.
type lockException struct {
	Pkg string
	// Func is the function as lockOrder names it: "F", "T.M" or
	// "(*T).M".
	Func string
	// Class is the lockClass's String form.
	Class  string
	Reason string
}

// lockExceptions is every equal-rank acquisition the tree makes on
// purpose.
var lockExceptions = []lockException{
	{
		Pkg: internalPrefix + "oneapi", Func: "(*Server).Handover", Class: "oneapi.cellState.mu",
		Reason: "both cells are locked in global cell-ID order (lower ID first), so concurrent handovers cannot form a cycle",
	},
}
