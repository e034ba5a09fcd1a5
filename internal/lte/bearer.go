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
	// After AddBearer, write it through SetGBR: a settled bearer rejoins
	// the per-TTI passes only when a setter (or Enqueue) stirs it.
	GBRBits float64
	// MBRBits is the maximum bit rate in bits/s; 0 means unlimited.
	// After AddBearer, write it through SetMBR.
	MBRBits float64

	// The unexported state is laid out by access pattern, not by topic:
	// everything tick and the schedulers touch every TTI sits in one
	// contiguous run starting at the two rates above, so a live bearer's
	// per-TTI working set is two or three cache lines.
	queue int64

	// gbrRefBits and mbrRefBits are the rates the cached derivatives
	// below were computed from — tick refreshes them, and the derivatives,
	// whenever it runs with a different positive rate.
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
	// divisions from a function that runs once per live bearer per TTI.
	gbrPerTTI float64 // GBRBits / 8 / TTIsPerSecond
	gbrLimit  float64 // GBRBits / 8
	mbrPerTTI float64 // MBRBits / 8 / TTIsPerSecond
	mbrBurst  float64 // mbrBurstBytes(MBRBits)

	mbrPrimed  bool
	everServed bool
	// settled marks a bearer that has left its cell's per-TTI passes
	// (see ENodeB.live); stir clears it.
	settled bool
	// retired marks a bearer that has left the passes for good
	// (ENodeB.Retire). It is never settled, so stir passes it by.
	retired bool

	// enb is the cell the bearer is registered with and idx its position
	// in that cell's bearer slice (both set by ENodeB.AddBearer).
	enb *ENodeB
	idx int

	win   WindowStats
	total WindowStats
}

// Enqueue adds bytes to the bearer queue and returns the number of bytes
// actually accepted (drop-tail beyond QueueLimit). Negative counts are
// rejected with 0.
func (b *Bearer) Enqueue(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	if b.retired {
		panic(fmt.Sprintf("lte: enqueue on retired bearer %d", b.ID))
	}
	accepted := bytes
	if b.QueueLimit > 0 && b.queue+bytes > b.QueueLimit {
		accepted = b.QueueLimit - b.queue
		if accepted < 0 {
			accepted = 0
		}
	}
	b.queue += accepted
	b.stir()
	return accepted
}

// SetGBR updates the guaranteed bit rate (0 = non-GBR). On a retired
// bearer it only records the rate.
func (b *Bearer) SetGBR(gbrBits float64) {
	b.GBRBits = gbrBits
	b.stir()
}

// SetMBR updates the maximum bit rate (0 = unlimited). On a retired
// bearer it only records the rate.
func (b *Bearer) SetMBR(mbrBits float64) {
	b.MBRBits = mbrBits
	b.stir()
}

// stir sends a settled bearer back to the per-TTI passes (the next
// readmit moves it into the live set). Every write that can end the
// fixed point calls it without asking whether this one did: a bearer
// re-admitted at its fixed point costs one tick that proves it and
// settles it again. Clearing the flag makes a second stir a no-op, so a
// bearer is listed at most once and the list never outgrows the room
// AddBearer gave it.
func (b *Bearer) stir() {
	if b.settled {
		b.settled = false
		b.enb.stirred = append(b.enb.stirred, b)
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

// tick updates the throughput averages with the bits served this TTI.
// Called once per TTI for every bearer that is not settled, served or
// not.
func (b *Bearer) tick(servedBits float64) {
	instant := servedBits * TTIsPerSecond // bits/s delivered this TTI
	// An idle bearer's averages spend most of their decay below the normal
	// range, where the float expression is microcode-assisted (~15x the
	// cost); idleDecay is the same step on the bit pattern. Each average
	// crosses over on its own, the fast one ~45 simulated seconds first.
	// The range test leads: it predicts, "served this TTI" does not.
	if b.avgTput < minNormalTput && servedBits == 0 {
		b.avgTput = idleDecay(b.avgTput, avgTputTTIs)
	} else {
		b.avgTput += (instant - b.avgTput) / avgTputTTIs
	}
	if b.fastTput < minNormalTput && servedBits == 0 {
		b.fastTput = idleDecay(b.fastTput, fastTputTTIs)
	} else {
		b.fastTput += (instant - b.fastTput) / fastTputTTIs
	}
	if b.GBRBits > 0 {
		if b.GBRBits != b.gbrRefBits {
			b.gbrRefBits = b.GBRBits
			b.gbrPerTTI = b.GBRBits / 8 / TTIsPerSecond
			b.gbrLimit = b.GBRBits / 8
		}
		// Accrue the GBR debt in bytes and pay it down with service.
		b.gbrCredit += b.gbrPerTTI
		b.gbrCredit -= servedBits / 8
		// Don't bank more than one second of credit, and don't let
		// surplus service turn into unbounded negative credit either.
		if b.gbrCredit > b.gbrLimit {
			b.gbrCredit = b.gbrLimit
		} else if b.gbrCredit < -b.gbrLimit {
			b.gbrCredit = -b.gbrLimit
		}
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
		b.mbrCredit += b.mbrPerTTI
		b.mbrCredit -= servedBits / 8
		if b.mbrCredit > b.mbrBurst {
			b.mbrCredit = b.mbrBurst
		}
	} else {
		b.mbrPrimed = false
	}
}

// minNormalTput is the smallest normal float64. The idle decay
// a -= a/N changes every normal a (a/N is far above a's last bit), so
// an average at or above it cannot be at its fixed point.
const minNormalTput = 0x1p-1022

// idleDecay returns a + (0-a)/n for a subnormal (or zero) average a >= 0,
// to the bit, without floating-point arithmetic. Below the normal range
// a float64 is its mantissa m times 2^-1074 and the representable values
// are exactly the integers, so the quotient rounds to RNE(m/n) — nearest,
// ties to even — and the sum m - RNE(m/n) is exact.
func idleDecay(a float64, n uint64) float64 {
	m := math.Float64bits(a)
	q, r := m/n, m%n
	if 2*r > n || (2*r == n && q&1 == 1) {
		q++
	}
	return math.Float64frombits(m - q)
}

// tickIdleOnce is tick(0) plus the fixed-point test: it reports whether
// the tick left the accounting state bit-identical. tick(0) is a
// deterministic function of that state and the bearer's GBR/MBR, so a
// true result proves every further idle tick at the same rates is a
// no-op — the one fact both tickIdle and the eNodeB's settled set rest
// on.
func (b *Bearer) tickIdleOnce() bool {
	prevAvg, prevFast := b.avgTput, b.fastTput
	prevGBR, prevMBR := b.gbrCredit, b.mbrCredit
	prevPrimed := b.mbrPrimed
	b.tick(0)
	return b.avgTput == prevAvg && b.fastTput == prevFast &&
		b.gbrCredit == prevGBR && b.mbrCredit == prevMBR &&
		b.mbrPrimed == prevPrimed
}

// tickIdle replays k idle TTIs (tick(0) k times) — the fast-forward
// catch-up for a bearer that was neither enqueued into nor served while
// the kernel skipped dead TTIs. It reports whether the replay ended at
// a fixed point (see tickIdleOnce).
//
// Determinism is the contract here: results must be byte-identical to
// calling tick(0) k times, so no closed form (pow-based EWMA decay,
// multiply-accumulate credits) is admissible — IEEE-754 rounding makes
// a*(1-1/N)^k differ from the iterated a -= a/N in the last bits. What
// IS admissible is fixed-point detection: the first iteration that
// leaves the state bit-identical proves every further iteration is a
// no-op and the remaining k can be dropped. The EWMAs do not reach
// zero: a -= a/N stalls at a small non-zero denormal (2.47e-322 for the
// 100-TTI window, 1e-322 for the 40-TTI one, where a/N rounds to zero),
// about 75 simulated seconds after the last service; the GBR/MBR
// credits saturate at their clamps within a second. So a skip costs at
// most those ~75 000 iterations however long it is — the later ones on
// tick's integer path (idleDecay), which is the literal tick(0) to the
// bit — and an idle bearer always ends up at a fixed point.
func (b *Bearer) tickIdle(k int64) bool {
	for i := int64(0); i < k; i++ {
		if b.tickIdleOnce() {
			return true // fixed point: all further idle ticks are no-ops
		}
	}
	return false
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
