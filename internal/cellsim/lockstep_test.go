package cellsim

import (
	"context"
	"encoding/json"
	"testing"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/oneapi"
)

// Lockstep equivalence: a multi-cell run on the inter-cell worker pool
// (MultiConfig.Workers) must be byte-identical to the same cells run one
// after another. "Byte-identical" is literal: the comparison is the
// marshalled golden encoding, the same bytes the golden-determinism gate
// pins.

// goldenBytes runs cfg and returns its golden encoding.
func goldenBytes(t *testing.T, cfg Config) []byte {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(toGolden(res), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLockstepMultiCell: the inter-cell pool. Three cells (two of them
// FLARE, sharing the OneAPI server) run with Workers=1 and Workers=4;
// every cell's golden bytes must match.
func TestLockstepMultiCell(t *testing.T) {
	cells := []Config{
		goldenConfig(SchemeFLARE),
		goldenConfig(SchemeFESTIVE),
		quickConfig(SchemeFLARE, 2, 1),
		mixedConfig(2, 2),
	}
	cells[2].Seed = 99

	runAll := func(workers int) [][]byte {
		server := oneapi.NewServer(core.DefaultConfig(), nil)
		res, err := RunMultiConfig(context.Background(), MultiConfig{Workers: workers}, server, cells...)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, len(res.Cells))
		for i, r := range res.Cells {
			b, err := json.MarshalIndent(toGolden(r), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			out[i] = b
		}
		return out
	}

	want := runAll(1)
	got := runAll(4)
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Errorf("cell %d diverged between Workers=1 and Workers=4\n got: %s\nwant: %s",
				i, got[i], want[i])
		}
	}
}
