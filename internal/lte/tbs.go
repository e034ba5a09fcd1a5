// Package lte implements the radio substrate of the FLARE reproduction: a
// single-cell LTE downlink at TTI (1 ms) granularity with 3GPP-style
// transport-block sizing, per-UE channel models (static, cyclic, trace,
// and random-waypoint mobility), and the three schedulers the paper's
// evaluation depends on (proportional fair, the ns-3 Priority Set
// Scheduler with GBR/MBR support, and FLARE's two-phase GBR scheduler).
//
// The paper's testbed is a JL-620 femtocell: 10 MHz FDD, 50 resource
// blocks (RBs) per 1 ms TTI, with the transport block size (TBS)
// controlled through the iTbs index. We reproduce that environment in
// software. TBS values are derived from a per-iTbs spectral-efficiency
// curve calibrated so that iTbs=2 yields ~4.4 Mbit/s of cell capacity at
// 50 RBs — the operating point implied by the throughput sums in the
// paper's Table I — rising to ~36 Mbit/s at iTbs=26 (the realistic 64-QAM
// ceiling for 10 MHz). The curve is geometric in between, matching the
// roughly exponential growth of the 36.213 TBS table. Only the shape of
// this mapping (monotone, wide dynamic range) matters for the
// experiments; DESIGN.md documents the substitution.
package lte

import "math"

const (
	// NumRB is the number of downlink resource blocks per TTI (10 MHz).
	NumRB = 50
	// RBGSize is the resource-block-group width for 10 MHz (36.213).
	RBGSize = 3
	// NumRBG is the number of RBGs per TTI: 16 groups of 3 RBs and one
	// final group of 2 (16*3 + 2 = 50).
	NumRBG = 17
	// MaxITbs is the largest valid iTbs index.
	MaxITbs = 26
	// MinITbs is the smallest valid iTbs index.
	MinITbs = 0
	// TTIsPerSecond converts per-TTI quantities to per-second rates.
	TTIsPerSecond = 1000
)

// perRBBits[i] is the number of bits carried by one resource block in one
// TTI at iTbs index i. See the package comment for the calibration.
var perRBBits = buildPerRBBits()

func buildPerRBBits() [MaxITbs + 1]float64 {
	// Anchors at 50 RBs: f(0) = 1.4 Mbit/s (the 36.213 QPSK floor),
	// f(2) = 4.4 Mbit/s (Table I operating point), f(26) = 36 Mbit/s.
	// Piecewise geometric between anchors: the real TBS table is much
	// steeper at the bottom than at the top.
	const (
		bitsAt0  = 1.4e6 / TTIsPerSecond / NumRB // per RB per TTI
		bitsAt2  = 4.4e6 / TTIsPerSecond / NumRB
		bitsAt26 = 36e6 / TTIsPerSecond / NumRB
	)
	growLow := math.Pow(bitsAt2/bitsAt0, 1.0/2.0)
	growHigh := math.Pow(bitsAt26/bitsAt2, 1.0/24.0)
	var tbl [MaxITbs + 1]float64
	for i := range tbl {
		if i <= 2 {
			tbl[i] = bitsAt0 * math.Pow(growLow, float64(i))
		} else {
			tbl[i] = bitsAt2 * math.Pow(growHigh, float64(i-2))
		}
	}
	return tbl
}

// rbgSizes is the RB width of each of the NumRBG resource block groups:
// RBGSize each, the last one what is left of NumRB.
var rbgSizes = buildRBGSizes()

func buildRBGSizes() []int {
	sizes := make([]int, NumRBG)
	total := 0
	for i := range sizes {
		sizes[i] = RBGSize
		if total+RBGSize > NumRB {
			sizes[i] = NumRB - total
		}
		total += sizes[i]
	}
	return sizes
}

// RBGSizes returns the RB width of each of the NumRBG resource block
// groups. The slice is one package-wide table that every cell hands its
// scheduler: callers must not modify it.
func RBGSizes() []int { return rbgSizes }

// ClampITbs limits an iTbs index to the valid range [MinITbs, MaxITbs].
func ClampITbs(i int) int {
	if i < MinITbs {
		return MinITbs
	}
	if i > MaxITbs {
		return MaxITbs
	}
	return i
}

// BitsPerRB returns the number of bits one RB carries in one TTI at the
// given iTbs index. Out-of-range indices are clamped.
func BitsPerRB(iTbs int) float64 {
	return perRBBits[ClampITbs(iTbs)]
}

// TBSBits returns the transport block size in bits for nRB resource
// blocks at the given iTbs. Non-positive nRB yields 0.
func TBSBits(iTbs, nRB int) int {
	if nRB <= 0 {
		return 0
	}
	if nRB > NumRB {
		nRB = NumRB
	}
	return int(BitsPerRB(iTbs) * float64(nRB))
}

// TBSBytes returns the transport block size in bytes for nRB resource
// blocks at the given iTbs.
func TBSBytes(iTbs, nRB int) int {
	return TBSBits(iTbs, nRB) / 8
}

// CellRateBps returns the full-cell downlink rate in bits per second at
// the given iTbs — i.e., the rate a single UE sees if granted all RBs.
func CellRateBps(iTbs int) float64 {
	return BitsPerRB(iTbs) * NumRB * TTIsPerSecond
}

// sinrRange maps the iTbs dynamic range onto an SINR axis for the
// mobility channel: iTbs 0 at about -4 dB up to iTbs 26 at about 22 dB,
// the usual LTE link-adaptation span.
const (
	minSINRdB = -4.0
	maxSINRdB = 22.0
)

// ITbsForSINR returns the largest iTbs supportable at the given SINR in
// dB, using a linear SINR-to-index mapping across the LTE link
// adaptation range. SINRs below the floor map to iTbs 0 (the femtocell
// always transmits at its most robust MCS rather than dropping the UE).
func ITbsForSINR(sinrDB float64) int {
	frac := (sinrDB - minSINRdB) / (maxSINRdB - minSINRdB)
	return ClampITbs(int(math.Floor(frac * MaxITbs)))
}
