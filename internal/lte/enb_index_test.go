package lte

import (
	"slices"
	"testing"

	"github.com/flare-sim/flare/internal/sim"
)

// refByID is the ENodeB's ID lookup as a map, the way it was kept before
// the ID-ordered index: AddBearer records a bearer under its ID unless
// the ID is taken, so a duplicate ID resolves to its first registration.
type refByID map[int]*Bearer

func (r refByID) add(b *Bearer) {
	if _, dup := r[b.ID]; !dup {
		r[b.ID] = b
	}
}

// TestBearerIndexMatchesMap drives the ENodeB and the map reference
// through seeded random AddBearer sequences — IDs out of order,
// repeated and negative, invalid UEs, and up to three times as many
// bearers as the channel has UEs, so the tables NewENodeB carves from
// one backing array outgrow their quarters — with busy TTIs in between
// that move bearers through the stirred and live lists. After every
// operation BearerByID, SetGBR and SetMBR must agree with the reference
// for every ID in play, Bearers must be exactly the bearers added, in
// order, and the live and stirred lists must hold each unsettled bearer
// once, live in bearer order.
func TestBearerIndexMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := sim.NewRNG(seed)
		ues := 1 + rng.Intn(12)
		enb := NewENodeB(NewUniformStaticChannel(ues, 12), TwoPhaseGBRScheduler{})
		ref := refByID{}
		var added []*Bearer
		idRange := 1 + rng.Intn(1+rng.Intn(3*ues)) // often fewer IDs than bearers
		limit := 1 + rng.Intn(3*ues)               // bearers to add, up to 3x the UEs
		mark := 1.0
		tti := int64(0)

		check := func(op string) {
			t.Helper()
			if !slices.Equal(enb.Bearers(), added) {
				t.Fatalf("seed %d after %s: Bearers() = %v, want the %d bearers added, in order", seed, op, enb.Bearers(), len(added))
			}
			for id := -idRange - 1; id <= idRange+1; id++ {
				want := ref[id]
				if got := enb.BearerByID(id); got != want {
					t.Fatalf("seed %d after %s: BearerByID(%d) = %p, want %p", seed, op, id, got, want)
				}
				mark++
				err := enb.SetGBR(id, mark)
				if (err == nil) != (want != nil) || want != nil && want.GBRBits != mark {
					t.Fatalf("seed %d after %s: SetGBR(%d) = %v, reference bearer %p", seed, op, id, err, want)
				}
				err = enb.SetMBR(id, mark)
				if (err == nil) != (want != nil) || want != nil && want.MBRBits != mark {
					t.Fatalf("seed %d after %s: SetMBR(%d) = %v, reference bearer %p", seed, op, id, err, want)
				}
				for _, b := range added {
					if b != want && (b.GBRBits == mark || b.MBRBits == mark) {
						t.Fatalf("seed %d after %s: updating ID %d reached bearer %d (index %d) too", seed, op, id, b.ID, b.idx)
					}
				}
			}
			seen := make(map[*Bearer]bool)
			for i, b := range enb.live {
				if i > 0 && enb.live[i-1].idx >= b.idx {
					t.Fatalf("seed %d after %s: live out of bearer order at %d", seed, op, i)
				}
				seen[b] = true
			}
			for _, b := range enb.stirred {
				if seen[b] {
					t.Fatalf("seed %d after %s: bearer %d both live and stirred", seed, op, b.idx)
				}
				seen[b] = true
			}
			for _, b := range added {
				if !b.settled && !seen[b] {
					t.Fatalf("seed %d after %s: unsettled bearer %d is neither live nor stirred", seed, op, b.idx)
				}
			}
		}

		for op := 0; op < 6*ues; op++ {
			switch r := rng.Intn(10); {
			case r < 6 && len(added) < limit:
				b := &Bearer{ID: rng.Intn(2*idRange+1) - idRange, UE: rng.Intn(ues), Class: ClassVideo}
				if rng.Intn(8) == 0 {
					b.UE = ues // invalid: refused, registers nothing
				}
				if _, err := enb.AddBearer(b); err != nil {
					if b.UE < ues {
						t.Fatalf("seed %d: valid bearer refused: %v", seed, err)
					}
				} else {
					added = append(added, b)
					ref.add(b)
				}
				check("AddBearer")
			default:
				// Enqueueing stirs a settled bearer: none of them (the
				// TTIs settle every fresh idle bearer), some, or all at
				// once, so that the stirred list outgrows its quarter.
				mode := rng.Intn(4)
				for _, b := range added {
					if mode == 3 || mode == 2 && rng.Intn(3) == 0 {
						b.Enqueue(int64(1 + rng.Intn(4000)))
					}
				}
				check("Enqueue")
				for k := rng.Intn(3); k >= 0; k-- {
					enb.RunTTI(tti)
					tti++
				}
				check("RunTTI")
			}
		}
	}
}

// TestBearerTablesOutgrowTheirQuarters fills each of the tables that
// share the ENodeB's backing array past its quarter: twice as many
// bearers as UEs, two per ID, settled on a quiet TTI and then all
// stirred at once, so the stirred list holds 2n bearers while the index
// still holds its n IDs. No table may write into its neighbour's
// quarter: lookups, Bearers and the live list must come out right.
func TestBearerTablesOutgrowTheirQuarters(t *testing.T) {
	const ues = 4
	enb := NewENodeB(NewUniformStaticChannel(ues, 12), PFScheduler{})
	ref := refByID{}
	var added []*Bearer
	for i := 0; i < 2*ues; i++ {
		b := &Bearer{ID: ues - 1 - i/2, UE: i % ues, Class: ClassData}
		if _, err := enb.AddBearer(b); err != nil {
			t.Fatal(err)
		}
		added = append(added, b)
		ref.add(b)
	}
	enb.RunTTI(0)
	if got := enb.numSettled(); got != 2*ues {
		t.Fatalf("%d of %d fresh idle bearers settled", got, 2*ues)
	}
	for _, b := range added {
		b.Enqueue(1000)
	}
	if len(enb.stirred) != 2*ues {
		t.Fatalf("%d bearers stirred, want %d", len(enb.stirred), 2*ues)
	}
	for id := -1; id <= ues; id++ {
		if got, want := enb.BearerByID(id), ref[id]; got != want {
			t.Fatalf("BearerByID(%d) = %p after the stir, want %p", id, got, want)
		}
	}
	enb.RunTTI(1)
	if !slices.Equal(enb.Bearers(), added) || !slices.Equal(enb.live, added) {
		t.Fatalf("after re-admitting every bearer: Bearers() = %v, live = %v, want %v", enb.Bearers(), enb.live, added)
	}
}

// TestRBGTableSharedAndUnchanged: every cell hands its scheduler the one
// package-wide RBG table, so no scheduler may write to it. Busy cells
// under every in-tree scheduler run with the shared table, which must
// then still be what buildRBGSizes computes.
func TestRBGTableSharedAndUnchanged(t *testing.T) {
	want := buildRBGSizes()
	for _, sched := range []Scheduler{PFScheduler{}, TwoPhaseGBRScheduler{}, SlicedScheduler{VideoFraction: 0.5}} {
		enb := NewENodeB(NewUniformStaticChannel(8, 12), sched)
		if &enb.rbgSizes[0] != &RBGSizes()[0] {
			t.Fatalf("%s: the cell holds a private RBG table", sched.Name())
		}
		bs := make([]*Bearer, 8)
		for i := range bs {
			bs[i] = &Bearer{ID: i, UE: i, Class: ClassData}
			if i%2 == 0 {
				bs[i].Class, bs[i].GBRBits = ClassVideo, 1e6
			}
			if _, err := enb.AddBearer(bs[i]); err != nil {
				t.Fatal(err)
			}
		}
		for tti := int64(0); tti < 200; tti++ {
			for i, b := range bs {
				if (int(tti)+i)%3 != 0 {
					b.Enqueue(3000)
				}
			}
			enb.RunTTI(tti)
		}
		if !slices.Equal(RBGSizes(), want) {
			t.Fatalf("%s wrote to the shared RBG table: %v, want %v", sched.Name(), RBGSizes(), want)
		}
	}
}
