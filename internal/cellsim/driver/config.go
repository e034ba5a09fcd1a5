package driver

import (
	"github.com/flare-sim/flare/internal/abr"
	"github.com/flare-sim/flare/internal/avis"
	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/faults"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/obs"
	"github.com/flare-sim/flare/internal/oneapi"
	"github.com/flare-sim/flare/internal/sim"
)

// Config is the engine-assembled view a driver factory receives: the
// slice of the cell configuration one scheme's driver needs, plus the
// cell-level context (shared control server, background populations)
// the engine computes for it. It deliberately does not reference the
// cellsim package — the dependency points the other way.
type Config struct {
	// Scheme is the registry name the driver is being built for (one
	// driver implementation may serve several names).
	Scheme string
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
	// Avis configures the AVIS allocator.
	Avis avis.Config
	// Festive and Google configure the client baselines.
	Festive abr.FestiveConfig
	Google  abr.GoogleConfig
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
	// ControlShards sets the shard count of a driver-created private
	// server (0 = the oneapi default). Shard count never changes
	// results — the shards=1 ≡ shards=N lockstep tests pin that — so
	// this is a contention knob for live deployments and a lever for
	// the equivalence tests. Ignored when OneAPI is non-nil.
	ControlShards int

	// BackgroundFlows counts the cell's flows NOT in this driver's group
	// (data + other video groups) — the competing population a
	// network-side allocator must budget for.
	BackgroundFlows int
	// BackgroundFlowIDs are those flows' bearer IDs, for drivers that
	// register competing traffic with their control plane (FLARE's PCRF).
	BackgroundFlowIDs []int

	// Obs is the telemetry recorder for this cell's control plane (nil =
	// recording disabled, the zero-cost default).
	Obs *obs.Recorder
}
