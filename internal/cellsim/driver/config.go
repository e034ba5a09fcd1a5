package driver

import (
	"github.com/flare-sim/flare/internal/abr"
	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/faults"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/obs"
	"github.com/flare-sim/flare/internal/oneapi"
	"github.com/flare-sim/flare/internal/sim"
)

// Config is the engine-assembled view a driver constructor receives: the
// slice of the cell configuration one scheme's driver needs, plus the
// cell-level context (shared control server, background populations)
// the engine computes for it. It deliberately does not reference the
// cellsim package — the dependency points the other way.
type Config struct {
	// Count is the number of video flows in this driver's group.
	Count int
	// Ladder is the cell's encoding ladder.
	Ladder has.Ladder
	// SegmentSeconds is the segment duration (MPC's horizon unit).
	SegmentSeconds float64
	// RNG is the simulation's primary randomness stream, shared with the
	// engine — draws interleave with the rest of the deterministic run.
	RNG *sim.RNG

	// Flare configures the FLARE controller (BAI, alpha, delta, solver).
	Flare core.Config
	// Fallback parameterises FLARE-plugin graceful degradation.
	Fallback abr.FallbackConfig
	// ControlFaults injects faults into the driver's control plane.
	ControlFaults faults.Config
	// LowBufferCapSeconds is the FLARE buffer-feedback threshold
	// (negative disables; 0 means the default).
	LowBufferCapSeconds float64

	// OneAPI is the shared control server for FLARE cells (nil = the
	// driver creates a private one). CellID is this cell's ID on it.
	OneAPI *oneapi.Server
	CellID int

	// BackgroundFlowIDs are the bearer IDs of the cell's flows NOT in
	// this driver's group (data + other video groups): the competing
	// population a network-side allocator must budget for (AVIS counts
	// them) and FLARE registers with its PCRF.
	BackgroundFlowIDs []int

	// Obs is the telemetry recorder for this cell's control plane (nil =
	// recording disabled, the zero-cost default).
	Obs *obs.Recorder
}
