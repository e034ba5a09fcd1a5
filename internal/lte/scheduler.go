package lte

// FlowState is the per-TTI view of a bearer the schedulers allocate
// against.
type FlowState struct {
	// Bearer is the flow being scheduled.
	Bearer *Bearer
	// ITbs is the UE's current MCS index.
	ITbs int
	// BitsPerRB is the per-RB capacity at ITbs, precomputed by the eNB.
	BitsPerRB float64

	// remaining tracks the unserved backlog within the TTI as RBGs are
	// granted, so schedulers stop feeding a flow once its queue is
	// covered.
	remaining int64
	// granted accumulates RBs granted this TTI.
	granted int

	// pf caches the PF metric for the TTI. The metric's inputs (iTbs and
	// the average-throughput EWMA) are constant within a TTI — the EWMA
	// only moves in Bearer.tick, after allocation — so computing it once
	// per Allocate call is byte-identical to recomputing it per RBG.
	pf float64
	// credit and inGBRSet are TwoPhaseGBRScheduler scratch: the phase-1
	// GBR byte credit still owed this TTI, valid only when inGBRSet.
	// Keeping them inline avoids the per-TTI map the scheduler used to
	// allocate on the hottest path in the simulator.
	credit   float64
	inGBRSet bool
}

// Granted returns the number of RBs granted to this flow in the current
// TTI. It is how callers (and tests) observe an Allocate outcome now that
// Allocate no longer materialises a per-TTI grant slice.
func (f *FlowState) Granted() int { return f.granted }

// grantedBytes returns the byte capacity of n RBs at this flow's MCS.
func (f *FlowState) grantBytes(nRB int) int64 {
	return int64(f.BitsPerRB * float64(nRB) / 8)
}

// eligible reports whether the flow can absorb more RBs this TTI.
func (f *FlowState) eligible() bool {
	return f.remaining > 0 && f.Bearer.underMBR()
}

// instantRateBits returns the full-band instantaneous rate in bits/s the
// UE would get if granted all RBs — the numerator of the PF metric.
func (f *FlowState) instantRateBits() float64 {
	return f.BitsPerRB * NumRB * TTIsPerSecond
}

// pfMetric is the proportional-fair metric: instantaneous achievable rate
// over average delivered rate. The small floor keeps newly admitted flows
// (average ~0) from producing +Inf while still strongly favouring them.
func (f *FlowState) pfMetric() float64 {
	avg := f.Bearer.AvgTputBits()
	if avg < 1000 {
		avg = 1000
	}
	return f.instantRateBits() / avg
}

// Scheduler allocates the TTI's resource block groups among flows.
// Implementations mutate the FlowState grant fields via grant(); callers
// read the outcome back through FlowState.Granted. Returning a fresh
// grant slice per TTI was the single largest allocation site in the
// engine, so the interface is deliberately allocation-free.
type Scheduler interface {
	// Name identifies the scheduler in logs and experiment output.
	Name() string
	// Allocate distributes the RBGs in rbgSizes among flows, recording
	// each flow's share in its granted field.
	Allocate(tti int64, flows []*FlowState, rbgSizes []int)
}

// grant gives one RBG to a flow, updating its intra-TTI bookkeeping.
func grant(f *FlowState, rbs int) {
	f.granted += rbs
	f.remaining -= f.grantBytes(rbs)
}

// cachePF snapshots every flow's PF metric for the TTI. Called at the
// top of each Allocate implementation that consults pickMaxPF.
func cachePF(flows []*FlowState) {
	for _, f := range flows {
		f.pf = f.pfMetric()
	}
}

// PFScheduler is the classic proportional-fair scheduler: each RBG goes
// to the eligible flow with the highest instantaneous-to-average rate
// ratio. It ignores GBR but respects MBR caps.
type PFScheduler struct{}

var _ Scheduler = (*PFScheduler)(nil)

// Name implements Scheduler.
func (PFScheduler) Name() string { return "pf" }

// Allocate implements Scheduler.
func (PFScheduler) Allocate(_ int64, flows []*FlowState, rbgSizes []int) {
	cachePF(flows)
	// The PF winner is sticky within a TTI: pf is frozen by cachePF and
	// eligibility is monotone non-increasing (grants only shrink
	// remaining; MBR credit moves only in Bearer.tick, after
	// allocation). A rescan while the last winner is still eligible
	// would return the same flow, so it is skipped — byte-identical
	// grants at a fraction of the scan cost.
	var best *FlowState
	for _, size := range rbgSizes {
		if best == nil || !best.eligible() {
			best = pickMaxPF(flows, nil)
			if best == nil {
				break
			}
		}
		grant(best, size)
	}
}

// pickMaxPF returns the eligible flow with the highest (cached) PF
// metric, or nil when none is eligible. When filter is non-nil only
// flows for which it returns true are considered. Callers must have run
// cachePF on flows first.
func pickMaxPF(flows []*FlowState, filter func(*FlowState) bool) *FlowState {
	var best *FlowState
	bestMetric := -1.0
	for _, f := range flows {
		if !f.eligible() {
			continue
		}
		if filter != nil && !filter(f) {
			continue
		}
		if f.pf > bestMetric {
			bestMetric = f.pf
			best = f
		}
	}
	return best
}

// TwoPhaseGBRScheduler is the FLARE testbed scheduler from Section III-B:
// Phase 1 serves video flows up to their GBR (tracked with a per-flow
// byte credit), Phase 2 hands the remaining RBGs to both video and data
// flows with legacy proportional fair. Because data traffic rides
// non-GBR, Phase 2 lets video opportunistically exceed its GBR when the
// optimiser lags the radio ("the Scheduler Module can opportunistically
// use the RBs of data traffic for video flows").
type TwoPhaseGBRScheduler struct{}

var _ Scheduler = (*TwoPhaseGBRScheduler)(nil)

// Name implements Scheduler.
func (TwoPhaseGBRScheduler) Name() string { return "gbr2p" }

// Allocate implements Scheduler.
func (TwoPhaseGBRScheduler) Allocate(_ int64, flows []*FlowState, rbgSizes []int) {
	cachePF(flows)
	// Phase 1: GBR video flows with outstanding credit, most-starved
	// first (largest credit backlog). The credit ledger lives in the
	// FlowState scratch fields — allocating a map here once per TTI was
	// the engine's top allocation site.
	for _, f := range flows {
		f.inGBRSet = f.Bearer.Class == ClassVideo && f.Bearer.GBRBits > 0
		if f.inGBRSet {
			f.credit = f.Bearer.gbrCredit
		}
	}
	next := 0
	for next < len(rbgSizes) {
		var best *FlowState
		bestCredit := 0.0
		for _, f := range flows {
			if !f.inGBRSet || f.credit <= 0 || !f.eligible() {
				continue
			}
			if best == nil || f.credit > bestCredit {
				best, bestCredit = f, f.credit
			}
		}
		if best == nil {
			break
		}
		size := rbgSizes[next]
		next++
		grant(best, size)
		best.credit -= float64(best.grantBytes(size))
	}
	// Phase 2: legacy PF over everything still eligible. The winner is
	// sticky (see PFScheduler.Allocate): rescanning only when the
	// current best goes ineligible is byte-identical to rescanning per
	// RBG because pf is frozen and the eligible set only shrinks.
	var best *FlowState
	for ; next < len(rbgSizes); next++ {
		if best == nil || !best.eligible() {
			best = pickMaxPF(flows, nil)
			if best == nil {
				break
			}
		}
		grant(best, rbgSizes[next])
	}
}

// SlicedScheduler statically partitions the RBGs between video and data
// flows — the AVIS-style static resource division the paper criticises.
// VideoFraction of the RBGs are offered to video flows first (PF among
// them, respecting MBR); the rest go to data flows. RBGs left idle in
// one slice are NOT reassigned to the other class, reproducing AVIS's
// documented under-utilisation.
type SlicedScheduler struct {
	// VideoFraction is the fraction of RBGs reserved for video flows.
	VideoFraction float64
}

var _ Scheduler = (*SlicedScheduler)(nil)

// Name implements Scheduler.
func (SlicedScheduler) Name() string { return "sliced" }

// Allocate implements Scheduler. Within the video slice, flows below
// their GBR are served first (the base station drags every GBR bearer
// toward its guaranteed rate, regardless of how many RBs a poor channel
// makes that cost — the enforcement behaviour that lets a stale AVIS
// assignment starve the rest of the slice).
func (s SlicedScheduler) Allocate(_ int64, flows []*FlowState, rbgSizes []int) {
	cachePF(flows)
	videoRBGs := int(s.VideoFraction*float64(len(rbgSizes)) + 0.5)
	if videoRBGs > len(rbgSizes) {
		videoRBGs = len(rbgSizes)
	}
	isVideo := func(f *FlowState) bool { return f.Bearer.Class == ClassVideo }
	videoUnderGBR := func(f *FlowState) bool {
		return isVideo(f) && f.Bearer.GBRBits > 0 && f.Bearer.FastTputBits() < f.Bearer.GBRBits
	}
	isData := func(f *FlowState) bool { return f.Bearer.Class == ClassData }
	// All three filters are frozen within the TTI (class is static,
	// FastTputBits only moves in Bearer.tick), so each pick is sticky:
	// rescan only when the cached winner goes ineligible, and remember
	// drained sets: a set that drains cannot refill before the next TTI.
	var bestGBR, bestVid, bestData *FlowState
	gbrDry, vidDry, dataDry := false, false, false
	for i, size := range rbgSizes {
		var best *FlowState
		if i < videoRBGs {
			if !gbrDry && (bestGBR == nil || !bestGBR.eligible()) {
				bestGBR = pickMaxPF(flows, videoUnderGBR)
				gbrDry = bestGBR == nil
			}
			best = bestGBR
			if best == nil {
				if !vidDry && (bestVid == nil || !bestVid.eligible()) {
					bestVid = pickMaxPF(flows, isVideo)
					vidDry = bestVid == nil
				}
				best = bestVid
			}
		} else {
			if !dataDry && (bestData == nil || !bestData.eligible()) {
				bestData = pickMaxPF(flows, isData)
				dataDry = bestData == nil
			}
			best = bestData
		}
		if best == nil {
			continue // slice idles rather than borrowing
		}
		grant(best, size)
	}
}
