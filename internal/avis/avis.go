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
	"time"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/lte"
)

// The AVIS parameters of the paper's Table IV: alpha=0.01, W=150.
const (
	// alpha is the EWMA step for the per-flow radio-cost estimate.
	alpha float64 = 0.01
	// Window is the allocation epoch length W.
	Window = 150 * time.Millisecond
)

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
	flows map[int]*avisFlow
}

// NewAllocator builds an AVIS allocator.
func NewAllocator() *Allocator {
	return &Allocator{flows: make(map[int]*avisFlow)}
}

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

// Partition returns the static video share of the cell: the video
// flows' head-count fraction, the natural static split for the scenario.
func (a *Allocator) Partition(numDataFlows int) float64 {
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
		f.bytesPerRB += alpha * (sample - f.bytesPerRB)
	}

	videoRBsPerSec := a.Partition(numDataFlows) * lte.NumRB * lte.TTIsPerSecond
	perFlowRBs := videoRBsPerSec / float64(len(ids))

	out := make([]Assignment, 0, len(ids))
	for _, id := range ids {
		f := a.flows[id]
		sustainableBps := perFlowRBs * f.bytesPerRB * 8
		level := f.ladder.HighestAtMost(sustainableBps)
		rate := f.ladder.Rate(level)
		// AVIS pins MBR to the assigned rate: the client's measured
		// throughput then sits at or below the target encoding rate, so
		// its own adaptation tends to request one level below the
		// network's assignment — the client/network mismatch the paper
		// documents for AVIS.
		out = append(out, Assignment{
			FlowID:      id,
			GBRBps:      rate,
			MBRBps:      rate,
			TargetLevel: level,
		})
	}
	return out
}
