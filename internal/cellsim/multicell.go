package cellsim

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"github.com/flare-sim/flare/internal/obs"
	"github.com/flare-sim/flare/internal/oneapi"
	"github.com/flare-sim/flare/internal/sim"
)

// MultiResult holds the per-cell outcomes of a multi-cell run.
type MultiResult struct {
	// Cells holds one Result per configured cell, in order.
	Cells []*Result
}

// MultiConfig tunes how a multi-cell run is executed. The zero value is
// ready to use.
type MultiConfig struct {
	// Workers bounds how many cells simulate concurrently. 0 means
	// GOMAXPROCS; negative values are rejected. Results are independent
	// of the worker count: each worker runs a contiguous range of cells
	// in input order, results are slotted by input index, and each cell
	// owns its RNG, event queue, and recorder.
	Workers int
}

// usesFLARE reports whether any of the cell's video groups (or its
// whole population, absent groups) runs the FLARE driver — i.e. whether
// the cell participates in the shared OneAPI control plane.
func (c *Config) usesFLARE() bool {
	for _, g := range c.videoGroups() {
		if g.Scheme == SchemeFLARE {
			return true
		}
	}
	return false
}

// RunMulti executes several cells concurrently, any scheme per cell —
// the paper's multi-BS deployment generalised. FLARE cells share the
// given OneAPI server ("a single OneAPI server can manage multiple BSs,
// though the bitrates are calculated independently for each network
// cell"); cells of other schemes ignore it, and the server may be nil
// when no cell runs FLARE. Cells are radio-independent, so each cell's
// result is as deterministic as its own seed.
func RunMulti(server *oneapi.Server, cells ...Config) (*MultiResult, error) {
	return RunMultiConfig(context.Background(), MultiConfig{}, server, cells...)
}

// RunMultiConfig is RunMulti with cooperative cancellation and an
// explicit execution configuration: every cell's TTI loop watches ctx,
// the first cell failure cancels the cells still running, and cells are
// fanned out to a sim.WorkerPool of mc.Workers goroutines (default
// GOMAXPROCS), each running a contiguous range of cells in order.
//
// Error contract: assembly problems are reported together for every
// bad cell (errors.Join, in cell order). Run failures are reported as
// the failure of the lowest-indexed failed cell — a deterministic
// choice, not whichever goroutine lost the race — with sibling
// cancellations ignored when any real failure exists.
func RunMultiConfig(ctx context.Context, mc MultiConfig, server *oneapi.Server, cells ...Config) (*MultiResult, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("cellsim: RunMulti needs at least one cell")
	}
	workers := mc.Workers
	switch {
	case workers < 0:
		return nil, fmt.Errorf("cellsim: MultiConfig.Workers must be >= 0, got %d", workers)
	case workers == 0:
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	sims := make([]*Sim, len(cells))
	var buildErrs []error
	// Cells may run concurrently, so nothing mutable may be shared
	// between them. The oneapi.Server locks each cell on its own, so
	// concurrent cells are safe; a telemetry recorder is not shareable
	// because each cell rebinds its clock into the recorder (SetNowTTI)
	// — reject that here instead of letting the race detector find it
	// mid-run.
	seenRec := make(map[*obs.Recorder]int)
	for i, cfg := range cells {
		if cfg.Obs != nil {
			if first, dup := seenRec[cfg.Obs]; dup {
				buildErrs = append(buildErrs,
					fmt.Errorf("cellsim: cell %d: obs recorder already attached to cell %d; cells run concurrently and need one recorder each", i, first))
				continue
			}
			seenRec[cfg.Obs] = i
		}
		if server == nil && cfg.usesFLARE() {
			buildErrs = append(buildErrs,
				fmt.Errorf("cellsim: cell %d: FLARE cells in a multi-cell run need a shared OneAPI server", i))
			continue
		}
		s, err := NewInCell(cfg, server, i)
		if err != nil {
			buildErrs = append(buildErrs, fmt.Errorf("cellsim: cell %d: %w", i, err))
			continue
		}
		sims[i] = s
	}
	if len(buildErrs) > 0 {
		return nil, errors.Join(buildErrs...)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	run := &multiRun{ctx: ctx, cancel: cancel, sims: sims,
		out: make([]*Result, len(sims)), errs: make([]error, len(sims))}
	pool := sim.NewWorkerPool(workers)
	defer pool.Close()
	pool.Do(len(sims), run)

	// Fold errors in input-index order: the lowest-indexed real failure
	// wins; cancellations only surface when nothing actually failed
	// (i.e. the caller's ctx fired).
	var firstCancelled error
	for _, err := range run.errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			if firstCancelled == nil {
				firstCancelled = err
			}
		default:
			return nil, err
		}
	}
	if firstCancelled != nil {
		return nil, firstCancelled
	}
	return &MultiResult{Cells: run.out}, nil
}

// multiRun is a multi-cell run's fan-out over a sim.WorkerPool: each
// range of cells runs in input order and writes only its own slots of
// out and errs, so the merge is deterministic by construction
// (TestLockstepMultiCell and -race hold it to that).
//
// A cell never pre-checks ctx before it starts: the engine's TTI loops
// poll only at TTI multiples of 1024 (and never at TTI 0), so every
// cell simulates at least its first ~1 s before a sibling's
// cancellation can reach it. A cell that fails within that window
// therefore always reports its own error — which cells end up in the
// error fold is a deterministic fact, not a scheduling race.
type multiRun struct {
	ctx    context.Context
	cancel context.CancelFunc
	sims   []*Sim
	out    []*Result
	errs   []error
}

func (m *multiRun) RunRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		res, err := m.sims[i].RunContext(m.ctx)
		if err != nil {
			m.errs[i] = fmt.Errorf("cellsim: cell %d: %w", i, err)
			m.cancel()
			continue
		}
		m.out[i] = res
	}
}
