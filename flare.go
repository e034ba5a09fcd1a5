// Package flare is a from-scratch reproduction of "FLARE: Coordinated
// Rate Adaptation for HTTP Adaptive Streaming in Cellular Networks"
// (ICDCS 2017): a fog-style HAS system in which a OneAPI network server
// and client-side player plugins jointly choose video bitrates for every
// flow in an LTE cell.
//
// The package is a facade over the implementation packages:
//
//   - internal/core — the FLARE bitrate optimisation (Eq. 2-4), the exact
//     and continuous-relaxation solvers, Algorithm 1, and the per-cell
//     controller;
//   - internal/lte, internal/transport, internal/has — the radio, TCP,
//     and streaming substrates;
//   - internal/abr, internal/avis — the FESTIVE, GOOGLE, and AVIS
//     baselines the paper compares against;
//   - internal/oneapi — the client/network coordination overlay (both
//     in-process and JSON-over-HTTP);
//   - internal/cellsim — the scenario runner tying everything together;
//   - internal/flaresuite — the experiment runner: one registered spec
//     per table and figure in the paper's evaluation, plus the scenario
//     matrix;
//   - internal/testbed — the software femtocell used by the examples.
//
// Quick start:
//
//	cfg := flare.DefaultScenario(flare.SchemeFLARE)
//	cfg.Duration = 2 * time.Minute
//	res, err := flare.RunScenario(cfg)
//	if err != nil { ... }
//	fmt.Println(res.MeanClientRate(), res.MeanChanges())
package flare

import (
	"net/http"

	"github.com/flare-sim/flare/internal/cellsim"
	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/metrics"
	"github.com/flare-sim/flare/internal/oneapi"
)

// Scenario configuration and execution (see internal/cellsim).
type (
	// Scenario describes one simulated cell: flow populations, channel
	// model, scheme under test, and all algorithm parameters.
	Scenario = cellsim.Config
	// ChannelSpec selects and parameterises the link model.
	ChannelSpec = cellsim.ChannelSpec
	// Scheme names the rate-adaptation system under test.
	Scheme = cellsim.Scheme
	// SchemeGroup assigns a block of a cell's video clients to one
	// scheme's driver (mixed-scheme cells via Scenario.VideoGroups).
	SchemeGroup = cellsim.FlowGroup
	// Result is a completed run's per-flow outcomes and series.
	Result = cellsim.Result
	// ClientResult is one video client's outcome.
	ClientResult = cellsim.ClientResult
	// DataResult is one data flow's outcome.
	DataResult = cellsim.DataResult
)

// The rate-adaptation systems the paper evaluates, plus two extension
// baselines from the client-side literature it cites.
const (
	SchemeFLARE   = cellsim.SchemeFLARE
	SchemeFESTIVE = cellsim.SchemeFESTIVE
	SchemeGOOGLE  = cellsim.SchemeGOOGLE
	SchemeAVIS    = cellsim.SchemeAVIS
	SchemeBBA     = cellsim.SchemeBBA
	SchemeMPC     = cellsim.SchemeMPC
)

// Channel model kinds.
const (
	ChannelStatic   = cellsim.ChannelStatic
	ChannelCyclic   = cellsim.ChannelCyclic
	ChannelMobility = cellsim.ChannelMobility
	ChannelTrace    = cellsim.ChannelTrace
)

// DefaultScenario returns the paper's Table III/IV baseline scenario for
// the given scheme: 8 video clients, 10 s segments, the simulation
// ladder, and default algorithm parameters.
func DefaultScenario(scheme Scheme) Scenario {
	return cellsim.DefaultConfig(scheme)
}

// RunScenario executes a scenario deterministically (the Seed field
// fixes every random stream) and returns the collected metrics.
func RunScenario(cfg Scenario) (*Result, error) {
	return cellsim.Run(cfg)
}

// Bitrate ladders (see internal/has).
type Ladder = has.Ladder

// Ladder constructors matching the paper's encodings.
var (
	// NewLadderKbps builds a ladder from Kbps values.
	NewLadderKbps = has.NewLadderKbps
	// TestbedLadder is the femtocell testbed's 8-level encoding set.
	TestbedLadder = has.TestbedLadder
	// SimLadder is the Table III simulation ladder.
	SimLadder = has.SimLadder
	// FineLadder is the dense 100..1200 Kbps ladder of Figures 8-10.
	FineLadder = has.FineLadder
)

// FLARE controller (see internal/core) — for embedding the paper's
// optimiser in other systems.
type (
	// ControllerConfig parameterises the FLARE controller.
	ControllerConfig = core.Config
	// Controller runs the per-cell bitrate optimisation once per BAI.
	Controller = core.Controller
	// Preferences are optional client-side hints (bitrate caps etc).
	Preferences = core.Preferences
	// FlowStats is the per-flow eNodeB accounting for one BAI.
	FlowStats = core.FlowStats
	// Assignment is one flow's per-BAI bitrate decision.
	Assignment = core.Assignment
)

// NewController builds a FLARE controller.
func NewController(cfg ControllerConfig) *Controller {
	return core.NewController(cfg)
}

// DefaultControllerConfig returns the paper's Table IV parameters.
func DefaultControllerConfig() ControllerConfig {
	return core.DefaultConfig()
}

// OneAPI coordination overlay (see internal/oneapi).
type (
	// OneAPIServer coordinates plugins, PCRF/PCEF, and controllers.
	OneAPIServer = oneapi.Server
	// OneAPIClient is the plugin-side HTTP client for one video flow.
	OneAPIClient = oneapi.Client
)

// NewOneAPIServer builds a OneAPI server whose per-cell controllers use
// cfg.
func NewOneAPIServer(cfg ControllerConfig) *OneAPIServer {
	return oneapi.NewServer(cfg, nil)
}

// OneAPIHandler exposes a OneAPI server over JSON/HTTP in the shape of
// the OMA RESTful Network APIs.
func OneAPIHandler(s *OneAPIServer) http.Handler {
	return oneapi.Handler(s)
}

// NewOneAPIClient creates a plugin client for one flow against a OneAPI
// server base URL.
func NewOneAPIClient(baseURL string, cellID, flowID int, httpc *http.Client) *OneAPIClient {
	return oneapi.NewClient(baseURL, cellID, flowID, httpc)
}

// Metrics helpers re-exported for downstream analysis.
var (
	// JainIndex computes Jain's fairness index.
	JainIndex = metrics.JainIndex
	// HarmonicMean computes the harmonic mean (zeros skipped).
	HarmonicMean = metrics.HarmonicMean
)

// MultiCellResult holds per-cell outcomes of a shared-server run.
type MultiCellResult = cellsim.MultiResult

// RunMultiCell executes several cells concurrently, any scheme per cell.
// FLARE cells share the given OneAPI server — the paper's "a single
// OneAPI server can manage multiple BSs" deployment; other schemes
// ignore it (and it may be nil when no cell runs FLARE).
func RunMultiCell(server *OneAPIServer, cells ...Scenario) (*MultiCellResult, error) {
	return cellsim.RunMulti(server, cells...)
}
