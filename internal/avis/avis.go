// Package avis implements the network-side baseline the paper compares
// against: AVIS (Chen et al., MOBICOM'13), in the simplified form the
// paper's Section IV-B describes — "we run a simple rate adaptation
// algorithm on a UE that requests the highest possible rate based on the
// estimated throughput, and set the GBR/MBR using the scheduler in the BS
// instead of resource slicing techniques".
//
// Two properties of AVIS matter for the reproduction because the paper
// blames them for its losses:
//
//  1. Static partitioning: a fixed fraction of the cell is reserved for
//     video; idle video resources are not lent to data traffic (the
//     SlicedScheduler in internal/lte realises this on the radio side).
//  2. Indirect enforcement: the network only sets GBR/MBR; the client's
//     own throughput-based adaptation picks the actual segment bitrate,
//     so the requested rate can lag or oscillate around the assignment.
package avis

import (
	"fmt"
	"sort"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/lte"
)

// Config parameterises the AVIS allocator. Table IV: alpha=0.01, W=150.
type Config struct {
	// Alpha is the EWMA step for the per-flow radio-cost estimate.
	Alpha float64
	// WindowMs is the allocation epoch length in milliseconds.
	WindowMs int
	// VideoFraction is the static share of the cell reserved for video;
	// 0 lets the allocator derive it from the flow counts at Partition.
	VideoFraction float64
	// MBRHeadroom scales the enforced MBR relative to the target
	// encoding. AVIS pins MBR to the assigned rate (headroom 1.0): the
	// client's measured throughput then sits at or below the target
	// encoding rate, so its own adaptation tends to request one level
	// below the network's assignment — the client/network mismatch the
	// paper documents for AVIS.
	MBRHeadroom float64
}

// DefaultConfig returns the paper's Table IV AVIS parameters.
func DefaultConfig() Config {
	return Config{Alpha: 0.01, WindowMs: 150, MBRHeadroom: 1.0}
}

// Assignment is one epoch's enforcement decision for a video flow.
type Assignment struct {
	FlowID int     `json:"flow_id"`
	GBRBps float64 `json:"gbr_bps"`
	MBRBps float64 `json:"mbr_bps"`
	// TargetLevel is the encoding the allocator sized the flow for.
	TargetLevel int `json:"target_level"`
}

type avisFlow struct {
	id         int
	ladder     has.Ladder
	bytesPerRB float64 // EWMA channel-efficiency estimate
}

// Allocator is the AVIS cell-level resource manager.
type Allocator struct {
	cfg   Config
	flows map[int]*avisFlow
}

// NewAllocator builds an AVIS allocator.
func NewAllocator(cfg Config) *Allocator {
	def := DefaultConfig()
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = def.Alpha
	}
	if cfg.WindowMs <= 0 {
		cfg.WindowMs = def.WindowMs
	}
	if cfg.MBRHeadroom < 1 {
		cfg.MBRHeadroom = def.MBRHeadroom
	}
	return &Allocator{cfg: cfg, flows: make(map[int]*avisFlow)}
}

// Config returns the allocator configuration.
func (a *Allocator) Config() Config { return a.cfg }

// Register admits a video flow. AVIS learns the ladder by inspecting the
// (unencrypted) video traffic in-network; here it is handed over
// directly.
//
// The allocator keeps the ladder it is handed, without copying it, and
// never writes to it; from then on the caller must not write to it
// either. Many flows may share one ladder.
func (a *Allocator) Register(flowID int, ladder has.Ladder) error {
	if err := ladder.Validate(); err != nil {
		return fmt.Errorf("avis: register flow %d: %w", flowID, err)
	}
	if _, ok := a.flows[flowID]; ok {
		return fmt.Errorf("avis: flow %d already registered", flowID)
	}
	a.flows[flowID] = &avisFlow{
		id:         flowID,
		ladder:     ladder,
		bytesPerRB: core.DefaultBytesPerRB,
	}
	return nil
}

// Unregister removes a departed flow.
func (a *Allocator) Unregister(flowID int) { delete(a.flows, flowID) }

// NumFlows returns the number of managed video flows.
func (a *Allocator) NumFlows() int { return len(a.flows) }

// Partition returns the static video share of the cell. A configured
// VideoFraction wins; otherwise the share is the video flows' head-count
// fraction, the natural static split for the scenario.
func (a *Allocator) Partition(numDataFlows int) float64 {
	if a.cfg.VideoFraction > 0 {
		f := a.cfg.VideoFraction
		if f > 1 {
			f = 1
		}
		return f
	}
	n := len(a.flows)
	if n == 0 {
		return 0
	}
	return float64(n) / float64(n+numDataFlows)
}

// RunEpoch computes one epoch's GBR/MBR assignments: each video flow
// gets an equal RB share of the video slice; the sustainable bitrate of
// that share (via the flow's channel-efficiency estimate) is snapped
// down to the flow's ladder.
func (a *Allocator) RunEpoch(stats map[int]core.FlowStats, numDataFlows int) []Assignment {
	if len(a.flows) == 0 {
		return nil
	}
	ids := make([]int, 0, len(a.flows))
	for id := range a.flows {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	// Update channel-efficiency estimates.
	for _, id := range ids {
		f := a.flows[id]
		s, ok := stats[id]
		var sample float64
		switch {
		case ok && s.Bytes > 0 && s.RBs > 0:
			sample = float64(s.Bytes) / float64(s.RBs)
		case ok && s.BytesPerRBHint > 0:
			sample = s.BytesPerRBHint
		default:
			continue
		}
		f.bytesPerRB += a.cfg.Alpha * (sample - f.bytesPerRB)
	}

	videoRBsPerSec := a.Partition(numDataFlows) * lte.NumRB * lte.TTIsPerSecond
	perFlowRBs := videoRBsPerSec / float64(len(ids))

	out := make([]Assignment, 0, len(ids))
	for _, id := range ids {
		f := a.flows[id]
		sustainableBps := perFlowRBs * f.bytesPerRB * 8
		level := f.ladder.HighestAtMost(sustainableBps)
		rate := f.ladder.Rate(level)
		out = append(out, Assignment{
			FlowID:      id,
			GBRBps:      rate,
			MBRBps:      rate * a.cfg.MBRHeadroom,
			TargetLevel: level,
		})
	}
	return out
}
