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

// Shard equivalence: Config.ControlShards changes only lock layout in
// the OneAPI control plane, never behaviour. Every golden scenario must
// be byte-identical between a 1-shard and a many-shard server — the
// same literal comparison the lockstep suite uses, on the marshalled
// golden encoding the golden-determinism gate pins.

// assertShardsLockstep runs cfg with ControlShards=1 and
// ControlShards=shards, asserting identical golden bytes.
func assertShardsLockstep(t *testing.T, cfg Config, shards int) {
	t.Helper()
	cfg.ControlShards = 1
	want := goldenBytes(t, cfg)
	cfg.ControlShards = shards
	got := goldenBytes(t, cfg)
	if string(got) != string(want) {
		t.Errorf("ControlShards=%d diverged from single-shard run\n got: %s\nwant: %s",
			shards, got, want)
	}
}

// TestShardsGoldenSchemes: every golden scenario, shards=1 vs shards=8,
// byte-identical. Non-FLARE schemes never touch the OneAPI server, so
// for them this doubles as a no-op regression check on the knob.
func TestShardsGoldenSchemes(t *testing.T) {
	for _, scheme := range []Scheme{
		SchemeFLARE, SchemeFESTIVE, SchemeGOOGLE, SchemeAVIS, SchemeBBA, SchemeMPC,
	} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			assertShardsLockstep(t, goldenConfig(scheme), 8)
		})
	}
}

// TestShardsFaultedRun: fault-injected control-plane traffic (drops and
// a blackout window) across shard counts.
func TestShardsFaultedRun(t *testing.T) {
	cfg := quickConfig(SchemeFLARE, 3, 1)
	cfg.Duration = 90 * time.Second
	cfg.ControlFaults = faults.Config{
		Seed:     7,
		DropRate: 0.4,
		Blackouts: []faults.Window{
			{From: 30 * time.Second, To: 50 * time.Second},
		},
	}
	assertShardsLockstep(t, cfg, 8)
}

// TestShardsMultiCell: a shared OneAPI server managing several FLARE
// cells concurrently, shards=1 vs shards=8, every cell byte-identical.
func TestShardsMultiCell(t *testing.T) {
	cells := []Config{
		goldenConfig(SchemeFLARE),
		quickConfig(SchemeFLARE, 2, 1),
		mixedConfig(2, 2),
	}
	cells[1].Seed = 99

	runAll := func(shards int) [][]byte {
		server := oneapi.NewServerSharded(core.DefaultConfig(), nil, shards)
		res, err := RunMultiConfig(context.Background(), MultiConfig{Workers: 4}, server, cells...)
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
	got := runAll(8)
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Errorf("cell %d diverged between shards=1 and shards=8\n got: %s\nwant: %s",
				i, got[i], want[i])
		}
	}
}
