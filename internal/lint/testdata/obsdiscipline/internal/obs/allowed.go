// Package obsallowed sits at internal/obs under the fixture root, where
// the scan stands down: the typed constructors themselves must be able
// to build literals.
package obsallowed

import "github.com/flare-sim/flare/internal/obs"

var zero = obs.Event{Kind: obs.KindInstall}

var _ = zero
