package cellsim

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The golden-determinism gate: fixed-seed single-scheme runs must produce
// byte-identical results across refactors of the engine. The files under
// testdata/golden were last re-recorded when the conventional player
// moved from its own population into a FESTIVE video group; any change
// to flow construction order, RNG draw order, or control-plane tick
// placement shows up here as a diff.
//
// Regenerate (only when a behaviour change is intended and understood):
//
//	go test ./internal/cellsim -run TestGoldenDeterminism -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current engine")

// goldenClient mirrors ClientResult field-for-field as of the capture.
// It is deliberately a separate struct: adding fields to ClientResult
// later must not silently change the golden encoding.
type goldenClient struct {
	FlowID              int
	AvgRateBps          float64
	AvgTputBps          float64
	NumChanges          int
	Segments            int
	StallSeconds        float64
	StallCount          int
	StartupDelaySeconds float64
	QoEScore            float64
	FallbackTransitions int
	FallbackIntervals   int
}

type goldenData struct {
	FlowID     int
	AvgTputBps float64
}

// goldenControl mirrors driver.ControlStats as of the capture, for the
// same reason goldenClient exists: fields added to the live struct
// later must not change the golden encoding.
type goldenControl struct {
	ReportsLost     int
	PollsLost       int
	EnforceFailures int
}

type goldenResult struct {
	Scheme       string
	Clients      []goldenClient
	Data         []goldenData
	ControlPlane goldenControl
	// NumBAIs is the count of solver invocations; the wall times
	// themselves are the one legitimately non-deterministic output.
	NumBAIs int
}

func toGoldenClient(c ClientResult) goldenClient {
	return goldenClient{
		FlowID:              c.FlowID,
		AvgRateBps:          c.AvgRateBps,
		AvgTputBps:          c.AvgTputBps,
		NumChanges:          c.NumChanges,
		Segments:            c.Segments,
		StallSeconds:        c.StallSeconds,
		StallCount:          c.StallCount,
		StartupDelaySeconds: c.StartupDelaySeconds,
		QoEScore:            c.QoEScore,
		FallbackTransitions: c.FallbackTransitions,
		FallbackIntervals:   c.FallbackIntervals,
	}
}

func toGolden(r *Result) goldenResult {
	g := goldenResult{
		Scheme: r.Scheme.String(),
		ControlPlane: goldenControl{
			ReportsLost:     r.ControlPlane.ReportsLost,
			PollsLost:       r.ControlPlane.PollsLost,
			EnforceFailures: r.ControlPlane.EnforceFailures,
		},
		NumBAIs: len(r.SolveTimesSec),
	}
	for _, c := range r.Clients {
		g.Clients = append(g.Clients, toGoldenClient(c))
	}
	for _, d := range r.Data {
		g.Data = append(g.Data, goldenData{FlowID: d.FlowID, AvgTputBps: d.AvgTputBps})
	}
	return g
}

// goldenConfig is the fixed scenario each scheme is pinned on: a busy
// little cell exercising the scheme's video group, a data flow and a
// conventional FESTIVE player (the Section V coexistence deployment;
// the FESTIVE cell is simply four FESTIVE players), the cyclic channel
// (so client-side estimators actually adapt), and fast control
// intervals.
func goldenConfig(scheme Scheme) Config {
	cfg := DefaultConfig(scheme)
	cfg.Seed = 0x601d // arbitrary fixed seed
	cfg.Duration = 90 * time.Second
	cfg.NumVideo = 4
	if scheme != SchemeFESTIVE {
		cfg.NumVideo = 0
		cfg.VideoGroups = []FlowGroup{{Scheme: scheme, Count: 3}, {Scheme: SchemeFESTIVE, Count: 1}}
	}
	cfg.NumData = 1
	cfg.SegmentDuration = 2 * time.Second
	cfg.Flare.BAI = 2 * time.Second
	cfg.Flare.Delta = 1
	cfg.Channel = ChannelSpec{
		Kind: ChannelCyclic, CyclicMin: 4, CyclicMax: 12,
		CyclicPeriod: 30 * time.Second,
	}
	return cfg
}

func goldenPath(scheme Scheme) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s.json", scheme))
}

func TestGoldenDeterminism(t *testing.T) {
	for _, scheme := range []Scheme{
		SchemeFLARE, SchemeFESTIVE, SchemeGOOGLE, SchemeAVIS, SchemeBBA, SchemeMPC,
	} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			res, err := Run(goldenConfig(scheme))
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(toGolden(res), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := goldenPath(scheme)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden to capture): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("%s result diverged from pre-refactor golden\n got: %s\nwant: %s",
					scheme, got, want)
			}
		})
	}
}
