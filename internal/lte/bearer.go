package lte

import (
	"fmt"
	"math"

	"github.com/flare-sim/flare/internal/sim"
)

// BearerClass distinguishes video bearers (eligible for GBR treatment)
// from best-effort data bearers.
type BearerClass int

// Bearer classes. Video bearers may carry a GBR; data bearers are always
// non-GBR, matching the paper's "video segments are serviced with the
// GBR, the data traffic is serviced with non-GBR".
const (
	ClassVideo BearerClass = iota + 1
	ClassData
)

// String implements fmt.Stringer.
func (c BearerClass) String() string {
	switch c {
	case ClassVideo:
		return "video"
	case ClassData:
		return "data"
	default:
		return fmt.Sprintf("BearerClass(%d)", int(c))
	}
}

// WindowStats is the per-bearer accounting the eNodeB's Statistics
// Reporter hands to the OneAPI server each BAI: the RBs assigned (n_u)
// and bytes transmitted (b_u) since the previous report.
type WindowStats struct {
	Bytes int64 `json:"bytes"`
	RBs   int64 `json:"rbs"`
}

// tput averaging constants. avgTputTTIs is the proportional-fair
// averaging window (the classic 100 ms); fastTputTTIs is the shorter
// window used for GBR/MBR eligibility checks.
const (
	avgTputTTIs  = 100
	fastTputTTIs = 40
)

// Bearer is one downlink flow at the eNodeB: a drop-tail byte queue plus
// the per-flow accounting the schedulers and the FLARE controller need.
// Bearers are owned and driven by a single ENodeB and are not safe for
// concurrent use.
type Bearer struct {
	// ID identifies the bearer within its cell.
	ID int
	// UE is the index of the UE this bearer belongs to (for the channel).
	UE int
	// Class is the traffic class.
	Class BearerClass
	// QueueLimit caps the queue in bytes; excess Enqueue bytes are
	// dropped (drop-tail), which is what triggers TCP loss recovery.
	// 0 means unlimited.
	QueueLimit int64

	// OnDeliver, if set, is fired with the number of bytes drained from
	// the queue each TTI the bearer is served. The transport layer uses
	// it to generate ACKs.
	OnDeliver sim.Handler

	// GBRBits is the guaranteed bit rate in bits/s; 0 means non-GBR.
	// After AddBearer, write it through SetGBR: an idle bearer's
	// accounting is brought up to date under the rate it accrued at
	// before a setter replaces it.
	GBRBits float64
	// MBRBits is the maximum bit rate in bits/s; 0 means unlimited.
	// After AddBearer, write it through SetMBR.
	MBRBits float64

	// The unexported state is laid out by access pattern, not by topic:
	// everything tick and the schedulers touch every TTI sits in one
	// contiguous run starting at the two rates above, so a busy bearer's
	// per-TTI working set is two or three cache lines.
	queue int64

	// gbrRefBits and mbrRefBits are the rates the cached derivatives
	// below were computed from — accrue refreshes them, and the
	// derivatives, whenever it runs with a different positive rate.
	gbrRefBits float64
	mbrRefBits float64

	// ttiServedBits is the bits served this TTI, written by the service
	// pass and consumed (re-zeroed) by the accounting pass.
	ttiServedBits float64

	avgTput   float64 // EWMA bits/s over avgTputTTIs, for PF metrics
	fastTput  float64 // EWMA bits/s over fastTputTTIs, for GBR checks
	gbrCredit float64 // bytes owed to meet GBR (two-phase scheduler)
	mbrCredit float64 // token bucket for strict MBR enforcement

	// Cached per-TTI derivatives of the rates in gbrRefBits/mbrRefBits.
	// Each is produced by exactly the expression tick used to evaluate
	// inline, so reuse is bit-identical; caching just removes several FP
	// divisions from a function that runs once per busy bearer per TTI.
	gbrPerTTI float64 // GBRBits / 8 / TTIsPerSecond
	gbrLimit  float64 // GBRBits / 8
	mbrPerTTI float64 // MBRBits / 8 / TTIsPerSecond
	mbrBurst  float64 // mbrBurstBytes(MBRBits)

	mbrPrimed  bool
	everServed bool
	// busy marks a bearer in its cell's per-TTI passes (ENodeB.busy):
	// backlogged, or backlogged when the current TTI began.
	busy bool
	// aged is the last TTI the accounting of a bearer that is not busy
	// covers; the TTIs after it, up to its cell's now, were idle for it
	// (see age).
	aged int64

	// enb is the cell the bearer is registered with and idx its position
	// in that cell's bearer slice (both set by ENodeB.AddBearer).
	enb *ENodeB
	idx int

	win   WindowStats
	total WindowStats
}

// Enqueue adds bytes to the bearer queue and returns the number of bytes
// actually accepted (drop-tail beyond QueueLimit). Negative counts are
// rejected with 0. Bytes that give an idle bearer a backlog bring its
// accounting up to date and put it into its cell's per-TTI passes.
func (b *Bearer) Enqueue(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	accepted := bytes
	if b.QueueLimit > 0 && b.queue+bytes > b.QueueLimit {
		accepted = b.QueueLimit - b.queue
		if accepted < 0 {
			accepted = 0
		}
	}
	b.queue += accepted
	if accepted > 0 && !b.busy && b.enb != nil {
		b.age()
		b.enb.wake(b)
	}
	return accepted
}

// SetGBR updates the guaranteed bit rate (0 = non-GBR).
func (b *Bearer) SetGBR(gbrBits float64) {
	b.age()
	b.GBRBits = gbrBits
}

// SetMBR updates the maximum bit rate (0 = unlimited).
func (b *Bearer) SetMBR(mbrBits float64) {
	b.age()
	b.MBRBits = mbrBits
}

// age brings the accounting of a bearer that is not busy up to its
// cell's now: every TTI since the bearer last left the per-TTI passes
// was an idle one, at the rates it has held since (a rate is only
// replaced after age has run). A busy bearer is up to date already.
func (b *Bearer) age() {
	if b.busy || b.enb == nil {
		return
	}
	if k := b.enb.now - b.aged; k > 0 {
		b.ageIdle(k)
		b.aged = b.enb.now
	}
}

// Backlog returns the queued bytes awaiting transmission.
func (b *Bearer) Backlog() int64 { return b.queue }

// AvgTputBits returns the proportional-fair average throughput estimate
// in bits/s.
func (b *Bearer) AvgTputBits() float64 { return b.avgTput }

// FastTputBits returns the short-window throughput estimate used for
// GBR/MBR eligibility.
func (b *Bearer) FastTputBits() float64 { return b.fastTput }

// CollectWindow returns the bytes/RBs accounted since the last call and
// resets the window — the Statistics Reporter contract.
func (b *Bearer) CollectWindow() WindowStats {
	w := b.win
	b.win = WindowStats{}
	return w
}

// TotalStats returns cumulative bytes/RBs since the bearer was created.
func (b *Bearer) TotalStats() WindowStats { return b.total }

// serve drains up to capBytes from the queue, records the RB cost, and
// fires OnDeliver. It returns the bytes actually served.
func (b *Bearer) serve(capBytes int64, rbs int) int64 {
	served := capBytes
	if served > b.queue {
		served = b.queue
	}
	b.queue -= served
	b.win.Bytes += served
	b.win.RBs += int64(rbs)
	b.total.Bytes += served
	b.total.RBs += int64(rbs)
	if served > 0 {
		b.everServed = true
		if b.OnDeliver != nil {
			b.OnDeliver.Fire(served)
		}
	}
	return served
}

// tick updates the throughput averages and credits with the bits
// served this TTI. Called once per TTI for every busy bearer, served or
// not.
func (b *Bearer) tick(servedBits float64) {
	instant := servedBits * TTIsPerSecond // bits/s delivered this TTI
	b.avgTput += (instant - b.avgTput) / avgTputTTIs
	b.fastTput += (instant - b.fastTput) / fastTputTTIs
	b.accrue(1, servedBits/8)
}

// ageIdle is k idle ticks in closed form: an average a decays to
// a·(1−1/N)^k, the classic PF average (Jalali, Padovani and Pankaj,
// VTC 2000) with nothing served. It differs from k iterated ticks in
// the last bits, and where the iterated decay stalls at a denormal the
// closed form reaches zero; only the schedulers read the averages, and
// only once the bearer is busy again.
func (b *Bearer) ageIdle(k int64) {
	n := float64(k)
	b.avgTput *= math.Pow(1-1.0/avgTputTTIs, n)
	b.fastTput *= math.Pow(1-1.0/fastTputTTIs, n)
	b.accrue(n, 0)
}

// accrue runs the GBR and MBR credits through k TTIs at the current
// rates, with servedBytes paid on the first of them: each TTI adds one
// TTI of credit, and the clamps hold as they would after every TTI.
// Since the per-TTI accrual is positive, only the first TTI can meet
// the GBR credit's lower clamp, and once a credit reaches its upper
// clamp it stays there. With k = 1 this is the per-TTI step, bit for
// bit.
func (b *Bearer) accrue(k, servedBytes float64) {
	if b.GBRBits > 0 {
		if b.GBRBits != b.gbrRefBits {
			b.gbrRefBits = b.GBRBits
			b.gbrPerTTI = b.GBRBits / 8 / TTIsPerSecond
			b.gbrLimit = b.GBRBits / 8
		}
		// Accrue the GBR debt in bytes and pay it down with service.
		// Don't bank more than one second of credit, and don't let
		// surplus service turn into unbounded negative credit either.
		c := max(b.gbrCredit+b.gbrPerTTI-servedBytes, -b.gbrLimit)
		if k > 1 {
			c += (k - 1) * b.gbrPerTTI
		}
		b.gbrCredit = min(c, b.gbrLimit)
	} else {
		b.gbrCredit = 0
	}
	if b.MBRBits > 0 {
		if b.MBRBits != b.mbrRefBits {
			b.mbrRefBits = b.MBRBits
			b.mbrPerTTI = b.MBRBits / 8 / TTIsPerSecond
			b.mbrBurst = mbrBurstBytes(b.MBRBits)
		}
		if !b.mbrPrimed {
			b.mbrPrimed = true
			b.mbrCredit = b.mbrBurst
		}
		c := b.mbrCredit + b.mbrPerTTI - servedBytes
		if k > 1 {
			c += (k - 1) * b.mbrPerTTI
		}
		b.mbrCredit = min(c, b.mbrBurst)
	} else {
		b.mbrPrimed = false
	}
}

// mbrBurstBytes is the MBR token bucket depth: 50 ms at the cap rate.
func mbrBurstBytes(mbrBits float64) float64 {
	return mbrBits / 8 * 0.05
}

// underMBR reports whether the bearer may be scheduled given its MBR
// cap. Enforcement is a token bucket, so the delivered rate can never
// average above the MBR — the strict cap AVIS-style network control
// relies on.
func (b *Bearer) underMBR() bool {
	return b.MBRBits <= 0 || b.mbrCredit > 0
}
