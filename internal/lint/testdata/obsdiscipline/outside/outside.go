// Package outside holds obs.Event literals outside internal/obs; the
// scan reports lines 10, 11, 14 and 17 and nothing else.
package outside

import o "github.com/flare-sim/flare/internal/obs"

var good = o.Install(1, 2, 1, 3, 2.5e6)

func build() []o.Event {
	bad := o.Event{Kind: o.KindInstall}
	ptr := &o.Event{Kind: o.KindDeliver}
	evs := []o.Event{
		good,
		{Kind: o.KindStale},
	}
	byFlow := map[int]*o.Event{
		1: {Kind: o.KindClamp},
	}
	return append(evs, bad, *ptr, *byFlow[1])
}

var _ = build
