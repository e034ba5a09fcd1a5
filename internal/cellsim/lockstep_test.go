package cellsim

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/faults"
	"github.com/flare-sim/flare/internal/oneapi"
)

// Lockstep equivalence: the parallel engine (intra-cell worker pool via
// Config.IntraWorkers, inter-cell worker pool via MultiConfig.Workers)
// must be byte-identical to the sequential engine on every golden
// scenario. "Byte-identical" is literal: the comparison is the marshalled
// golden encoding, the same bytes the golden-determinism gate pins.

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

// assertLockstep runs cfg sequentially and with parallel intra-cell
// workers, asserting identical golden bytes.
func assertLockstep(t *testing.T, cfg Config, workers int) {
	t.Helper()
	cfg.IntraWorkers = 0
	want := goldenBytes(t, cfg)
	cfg.IntraWorkers = workers
	got := goldenBytes(t, cfg)
	if string(got) != string(want) {
		t.Errorf("IntraWorkers=%d diverged from sequential run\n got: %s\nwant: %s",
			workers, got, want)
	}
}

// TestLockstepGoldenSchemes: every golden scenario, workers=1 vs
// workers=3, byte-identical.
func TestLockstepGoldenSchemes(t *testing.T) {
	for _, scheme := range []Scheme{
		SchemeFLARE, SchemeFESTIVE, SchemeGOOGLE, SchemeAVIS, SchemeBBA, SchemeMPC,
	} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			assertLockstep(t, goldenConfig(scheme), 3)
		})
	}
}

// TestLockstepNaiveLoop covers the runNaive TTI loop (fast-forward
// disabled), whose parallel tick sweep walks every flow rather than the
// active list.
func TestLockstepNaiveLoop(t *testing.T) {
	for _, scheme := range []Scheme{SchemeFLARE, SchemeBBA} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := goldenConfig(scheme)
			cfg.DisableFastForward = true
			assertLockstep(t, cfg, 3)
		})
	}
}

// TestLockstepMobilityChannel covers the channel model that does NOT
// implement RangeUpdater: the mobility random walk consumes a shared RNG
// stream, so the parallel engine must fall back to a sequential channel
// update while still parallelising the other phases.
func TestLockstepMobilityChannel(t *testing.T) {
	cfg := quickConfig(SchemeFLARE, 3, 1)
	cfg.Duration = 60 * time.Second
	cfg.Channel = ChannelSpec{Kind: ChannelMobility}
	assertLockstep(t, cfg, 3)
}

// TestLockstepFaultedRun: control-plane fault injection (drops plus a
// blackout window) draws from its own seeded streams; the parallel
// engine must preserve every draw's order.
func TestLockstepFaultedRun(t *testing.T) {
	cfg := quickConfig(SchemeFLARE, 3, 1)
	cfg.Duration = 90 * time.Second
	cfg.ControlFaults = faults.Config{
		Seed:     7,
		DropRate: 0.4,
		Blackouts: []faults.Window{
			{From: 30 * time.Second, To: 50 * time.Second},
		},
	}
	assertLockstep(t, cfg, 3)
}

// TestLockstepMixedCell: FLARE and FESTIVE sharing one cell.
func TestLockstepMixedCell(t *testing.T) {
	assertLockstep(t, mixedConfig(2, 2), 3)
}

// TestLockstepChurnCell: 200 declared sessions, about 12 live. Nearly
// every bearer is settled nearly all the time, so this is the case where
// the parallel radio phases run over a live set that is a small, moving
// subset of the bearers: sessions arrive onto bearers that settled at
// the first TTI, depart mid-download, and the departed bearers settle
// again once their averages have decayed (~75 s on).
func TestLockstepChurnCell(t *testing.T) {
	assertLockstep(t, churnConfig(7, 200, 160*time.Second, 12), 3)
}

// TestLockstepManyWorkers: more workers than flows, and an odd worker
// count that leaves uneven range chunks.
func TestLockstepManyWorkers(t *testing.T) {
	for _, w := range []int{2, 7, 16} {
		assertLockstep(t, goldenConfig(SchemeFLARE), w)
	}
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

// TestLockstepMultiCellIntra stacks both pools: a multi-cell run whose
// cells each use intra-cell workers must match the fully sequential run.
func TestLockstepMultiCellIntra(t *testing.T) {
	seq := []Config{goldenConfig(SchemeFLARE), goldenConfig(SchemeBBA)}
	par := []Config{goldenConfig(SchemeFLARE), goldenConfig(SchemeBBA)}
	for i := range par {
		par[i].IntraWorkers = 3
	}

	runAll := func(workers int, cells []Config) [][]byte {
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

	want := runAll(1, seq)
	got := runAll(2, par)
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Errorf("cell %d diverged with stacked inter+intra parallelism\n got: %s\nwant: %s",
				i, got[i], want[i])
		}
	}
}
