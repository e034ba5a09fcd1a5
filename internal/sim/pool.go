package sim

import "sync"

// RangeRunner is the unit of work a WorkerPool fans out: RunRange is
// invoked with disjoint, contiguous half-open index ranges that together
// cover [0, n). Implementations must only touch state owned by the
// indices in their range; anything shared is folded by the caller after
// Do returns, in a fixed index order, so results stay byte-identical to
// the sequential loop.
type RangeRunner interface {
	RunRange(lo, hi int)
}

// WorkerPool is a bounded pool of persistent worker goroutines used to
// split an indexed loop (the flaresuite seeded-run loop, cellsim's
// multi-cell run) across cores without perturbing determinism. The
// pool itself never reorders
// anything observable: it only partitions [0, n) into contiguous
// chunks, and every reduction over the results happens in the caller,
// in index order.
//
// A pool with one worker runs everything inline on the caller's
// goroutine and spawns nothing, so `workers=1` is byte-for-byte the
// sequential loop with zero scheduling overhead.
//
// Do is a barrier: it returns only after every chunk has completed.
// It must not be called re-entrantly (from inside a RunRange) and the
// pool must only be driven from one goroutine at a time.
//
// The disjoint-slot contract is held by tests: TestWorkerPoolCoversAllIndices
// (the partition), the callers' lockstep suites — flaresuite's
// TestRunLockstepAcrossWorkers and cellsim's TestLockstepMultiCell — and
// `go test -race`. A worker that writes another index's slot, or a
// fold in completion order, fails the lockstep comparison.
type WorkerPool struct {
	workers int
	tasks   chan poolRange
	wg      sync.WaitGroup
	runner  RangeRunner
}

type poolRange struct{ lo, hi int }

// NewWorkerPool creates a pool with the given number of workers.
// Values below 1 are clamped to 1 (inline execution, no goroutines).
func NewWorkerPool(workers int) *WorkerPool {
	if workers < 1 {
		workers = 1
	}
	p := &WorkerPool{workers: workers}
	if workers == 1 {
		return p
	}
	p.tasks = make(chan poolRange, workers)
	for i := 0; i < workers; i++ {
		go p.work(p.tasks)
	}
	return p
}

func (p *WorkerPool) work(tasks <-chan poolRange) {
	for r := range tasks {
		p.runner.RunRange(r.lo, r.hi)
		p.wg.Done()
	}
}

// Workers returns the pool's worker count.
func (p *WorkerPool) Workers() int { return p.workers }

// Do partitions [0, n) into at most Workers() contiguous chunks and runs
// r.RunRange on each, returning once all chunks have completed. The
// partition is a pure function of (n, workers). With one worker (or
// n == 0) nothing is dispatched and the work runs inline.
func (p *WorkerPool) Do(n int, r RangeRunner) {
	if n <= 0 {
		return
	}
	if p.workers == 1 {
		r.RunRange(0, n)
		return
	}
	k := p.workers
	if n < k {
		k = n
	}
	// The channel send below happens-after this write, so workers
	// observe the current runner; the wg.Wait barrier ensures no worker
	// still reads it when the next Do overwrites it.
	p.runner = r
	p.wg.Add(k)
	base, rem := n/k, n%k
	lo := 0
	for i := 0; i < k; i++ {
		hi := lo + base
		if i < rem {
			hi++
		}
		p.tasks <- poolRange{lo, hi}
		lo = hi
	}
	p.wg.Wait()
	p.runner = nil
}

// Close shuts the worker goroutines down. The pool must not be used
// after Close. Close on a 1-worker pool is a no-op.
func (p *WorkerPool) Close() {
	if p.tasks != nil {
		close(p.tasks)
		p.tasks = nil
	}
}
