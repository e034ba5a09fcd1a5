// Package lockfix exercises the lockorder analyzer under a
// fixture-local rank table mirroring the control plane's hierarchy:
// regMu (50) > Server.optMu (30) > Shard.mu (20) > Cell.mu (10).
// It covers descending acquisition (clean), direct inversion, the
// equal-rank Handover shape (flagged, and waived when the code imposes
// a global order itself), transitive acquisition through a helper,
// deferred unlocks holding to exit, fresh goroutine held-sets, and
// closures inheriting the definition point's held-set.
package lockfix

import "sync"

// regMu is a package-level mutex (rank 50, outermost).
var regMu sync.Mutex

// Cell is the innermost lock owner (rank 10).
type Cell struct {
	mu   sync.Mutex
	load int
}

// Shard sits above cells (rank 20).
type Shard struct {
	mu    sync.Mutex
	cells map[int]*Cell
}

// Server owns the outer optimizer lock (rank 30).
type Server struct {
	optMu  sync.Mutex
	shards []*Shard
}

// ordered acquires strictly descending ranks: clean.
func ordered(s *Server, sh *Shard, c *Cell) {
	regMu.Lock()
	s.optMu.Lock()
	sh.mu.Lock()
	c.mu.Lock()
	c.mu.Unlock()
	sh.mu.Unlock()
	s.optMu.Unlock()
	regMu.Unlock()
}

// inverted takes the shard lock while holding a cell lock.
func inverted(sh *Shard, c *Cell) {
	c.mu.Lock()
	sh.mu.Lock() // want `lock order inversion in inverted: acquiring lockfix.Shard.mu \(rank 20\) while holding lockfix.Cell.mu \(rank 10\)`
	sh.mu.Unlock()
	c.mu.Unlock()
}

// globalInverted takes the package-level mutex innermost.
func globalInverted(c *Cell) {
	c.mu.Lock()
	regMu.Lock() // want `acquiring lockfix.regMu \(rank 50\) while holding lockfix.Cell.mu \(rank 10\)`
	regMu.Unlock()
	c.mu.Unlock()
}

// handover locks two equal-rank cells with no declared order: the
// AB-BA shape two concurrent handovers deadlock on.
func handover(a, b *Cell) {
	a.mu.Lock()
	b.mu.Lock() // want `acquiring lockfix.Cell.mu \(rank 10\) while holding lockfix.Cell.mu \(rank 10\)`
	a.load, b.load = b.load, a.load
	b.mu.Unlock()
	a.mu.Unlock()
}

// handoverOrdered is the sanctioned version: the caller guarantees
// a global order and says so, which waives the equal-rank finding.
func handoverOrdered(first, second *Cell) {
	first.mu.Lock()
	//flare:allow fixture: equal-rank by design — callers pass cells in global ID order, so concurrent handovers cannot form a cycle
	second.mu.Lock()
	first.load, second.load = second.load, first.load
	second.mu.Unlock()
	first.mu.Unlock()
}

// grabShard is clean in isolation; it only matters who calls it.
func grabShard(sh *Shard) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.cells = nil
}

// under calls grabShard while holding a cell lock: the inversion is
// transitive, reported at the call site.
func under(sh *Shard, c *Cell) {
	c.mu.Lock()
	grabShard(sh) // want `call to grabShard acquires lockfix.Shard.mu \(rank 20\) while holding lockfix.Cell.mu \(rank 10\)`
	c.mu.Unlock()
}

// deferHeld shows a deferred unlock keeps the class held to exit.
func deferHeld(sh *Shard, c *Cell) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh.mu.Lock() // want `acquiring lockfix.Shard.mu \(rank 20\) while holding lockfix.Cell.mu \(rank 10\)`
	sh.mu.Unlock()
}

// releasedEarly unlocks before taking the higher rank: clean.
func releasedEarly(sh *Shard, c *Cell) {
	c.mu.Lock()
	c.mu.Unlock()
	sh.mu.Lock()
	sh.mu.Unlock()
}

// goFresh spawns a goroutine while holding a cell lock; the goroutine
// starts with nothing held, so its shard acquisition is clean.
func goFresh(sh *Shard, c *Cell) {
	c.mu.Lock()
	go func() {
		sh.mu.Lock()
		sh.mu.Unlock()
	}()
	c.mu.Unlock()
}

// closureInherits defines a closure at a point where the cell lock is
// held, as a visitor run under its caller's lock is: the closure's
// shard acquisition is an inversion.
func closureInherits(sh *Shard, c *Cell) {
	c.mu.Lock()
	f := func() {
		sh.mu.Lock() // want `acquiring lockfix.Shard.mu \(rank 20\) while holding lockfix.Cell.mu \(rank 10\)`
		sh.mu.Unlock()
	}
	f()
	c.mu.Unlock()
}

// branches walks each arm with its own held-set copy: clean.
func branches(sh *Shard, c *Cell, swap bool) {
	if swap {
		sh.mu.Lock()
		sh.mu.Unlock()
	}
	c.mu.Lock()
	c.mu.Unlock()
}

var (
	_ = ordered
	_ = inverted
	_ = globalInverted
	_ = handover
	_ = handoverOrdered
	_ = under
	_ = deferHeld
	_ = releasedEarly
	_ = goFresh
	_ = closureInherits
	_ = branches
)
