package lint_test

import (
	"testing"

	"github.com/flare-sim/flare/internal/lint"
	"github.com/flare-sim/flare/internal/lint/linttest"
)

// TestStaleWaiver checks the directive hygiene rules: a //flare:allow
// consumed by the finding it suppresses is healthy, while one that
// suppresses nothing is reported — the audit lint.Run appends after
// suppression, so a stale waiver can never excuse its own staleness —
// and any other //flare: comment is an unknown directive.
func TestStaleWaiver(t *testing.T) {
	ranks := []lint.LockClass{{Pkg: "fixture/stalefix", Type: "Cell", Field: "mu", Rank: 10,
		Doc: "fixture: the one ranked lock"}}
	linttest.Run(t, "testdata/stalewaiver", "fixture/stalefix", lint.NewLockOrder(ranks))
}
