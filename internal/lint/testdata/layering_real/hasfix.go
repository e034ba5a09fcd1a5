// Package hasfix is checked as if it lived at internal/has/fixture, so
// the real layer rules apply: the has subtree may import sim and the
// standard library, but not obs.
package hasfix

import (
	"fmt"

	"github.com/flare-sim/flare/internal/obs"
	"github.com/flare-sim/flare/internal/sim"
)

var _ = fmt.Sprint(obs.KindClamp, sim.Clock{})
