package cellsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/obs"
	"github.com/flare-sim/flare/internal/oneapi"
)

// mixedConfig is a cell split between a coordinated FLARE group and an
// uncoordinated FESTIVE group.
func mixedConfig(nFlare, nFestive int) Config {
	cfg := quickConfig(SchemeFLARE, 0, 0)
	cfg.VideoGroups = []FlowGroup{
		{Scheme: SchemeFLARE, Count: nFlare},
		{Scheme: SchemeFESTIVE, Count: nFestive},
	}
	return cfg
}

func TestMixedSchemeCell(t *testing.T) {
	cfg := mixedConfig(2, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clients) != 4 {
		t.Fatalf("%d clients, want 4", len(res.Clients))
	}
	flare := res.ClientsByScheme(SchemeFLARE)
	festive := res.ClientsByScheme(SchemeFESTIVE)
	if len(flare) != 2 || len(festive) != 2 {
		t.Fatalf("group split %d/%d, want 2/2", len(flare), len(festive))
	}
	// Flow IDs are assigned group by group, in order.
	if flare[0].FlowID != 0 || flare[1].FlowID != 1 || festive[0].FlowID != 2 || festive[1].FlowID != 3 {
		t.Fatalf("flow-ID layout wrong: %+v", res.Clients)
	}
	for _, c := range res.Clients {
		if c.Segments == 0 {
			t.Errorf("%s client %d downloaded nothing", c.Scheme, c.FlowID)
		}
	}
	// Only the FLARE group has a control plane; its solve times are the
	// cell's.
	if len(res.SolveTimesSec) == 0 {
		t.Error("mixed cell recorded no FLARE solves")
	}
	// The coordinated group holds its GBR guarantee even with
	// uncoordinated neighbours.
	for _, c := range flare {
		if c.StallSeconds > 0 {
			t.Errorf("coordinated client %d stalled %.1fs", c.FlowID, c.StallSeconds)
		}
	}
}

func TestMixedSchemeCellDeterministic(t *testing.T) {
	cfg := mixedConfig(2, 2)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Clients {
		if a.Clients[i] != b.Clients[i] {
			t.Fatalf("client %d differs between identical runs:\n%+v\n%+v", i, a.Clients[i], b.Clients[i])
		}
	}
}

func TestVideoGroupsValidation(t *testing.T) {
	rows := []struct {
		name string
		mut  func(*Config)
		want string // "" = accepted, and the cell runs
	}{
		{"zero count", func(c *Config) { c.VideoGroups[0].Count = 0 }, "positive count"},
		{"negative count", func(c *Config) { c.VideoGroups[1].Count = -3 }, "positive count"},
		{"unknown scheme", func(c *Config) { c.VideoGroups[0].Scheme = Scheme(42) }, "unknown scheme"},
		{"duplicate scheme", func(c *Config) { c.VideoGroups[1].Scheme = SchemeFLARE }, "more than one video group"},
		{"numvideo mismatch", func(c *Config) { c.NumVideo = 7 }, "disagrees"},
		{"numvideo match", func(c *Config) { c.NumVideo = 4 }, ""},
		// A FLARE cell whose only video is conventional players: nothing
		// for the controller to manage, and nothing to refuse.
		{"festive only", func(c *Config) { c.VideoGroups = []FlowGroup{{Scheme: SchemeFESTIVE, Count: 2}} }, ""},
	}
	for _, tt := range rows {
		t.Run(tt.name, func(t *testing.T) {
			cfg := mixedConfig(2, 2)
			tt.mut(&cfg)
			err := cfg.Validate()
			if tt.want == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q missing %q", err, tt.want)
			}
		})
	}
}

// TestRunMultiMixedSchemes runs a FLARE cell, a FESTIVE cell, and a BBA
// cell against one shared server and verifies the server is only
// touched by the FLARE cell.
func TestRunMultiMixedSchemes(t *testing.T) {
	server := oneapi.NewServer(core.DefaultConfig(), nil)
	flareCell := quickConfig(SchemeFLARE, 2, 0)
	festiveCell := quickConfig(SchemeFESTIVE, 2, 0)
	festiveCell.Seed = 7
	bbaCell := quickConfig(SchemeBBA, 1, 1)
	bbaCell.Seed = 11

	res, err := RunMulti(server, flareCell, festiveCell, bbaCell)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("%d cells", len(res.Cells))
	}
	for i, want := range []int{2, 2, 1} {
		if len(res.Cells[i].Clients) != want {
			t.Fatalf("cell %d has %d clients, want %d", i, len(res.Cells[i].Clients), want)
		}
		if res.Cells[i].MeanClientRate() <= 0 {
			t.Fatalf("cell %d produced no video", i)
		}
	}
	// Cell 0 (FLARE) used the shared control plane; cells 1 and 2 never
	// touched it.
	if n, _, _ := server.LastSolve(0); n == 0 {
		t.Error("FLARE cell ran no solves on the shared server")
	}
	for _, cell := range []int{1, 2} {
		if n, _, _ := server.LastSolve(cell); n != 0 {
			t.Errorf("non-FLARE cell %d ran %d solves on the shared server", cell, n)
		}
	}
	// Non-FLARE cells also produce no control-plane telemetry.
	if len(res.Cells[1].SolveTimesSec) != 0 || len(res.Cells[2].SolveTimesSec) != 0 {
		t.Error("non-FLARE cells reported solve times")
	}

	// A per-cell failure is reported with its cell index, and the run as
	// a whole fails.
	badCell := quickConfig(SchemeFLARE, 1, 0)
	badCell.VideoArrivals = []time.Duration{0, 0} // wrong length: assembly error
	if _, err := RunMulti(server, flareCell, badCell); err == nil {
		t.Fatal("invalid cell accepted")
	} else if !strings.Contains(err.Error(), "cell 1") {
		t.Fatalf("error %q does not name the failing cell", err)
	}
}

// TestMixedCellInMulti puts a mixed FLARE+FESTIVE cell into a
// multi-cell run next to a pure-FESTIVE cell: the shared server serves
// only the mixed cell's FLARE group.
func TestMixedCellInMulti(t *testing.T) {
	server := oneapi.NewServer(core.DefaultConfig(), nil)
	mixed := mixedConfig(2, 1)
	pure := quickConfig(SchemeFESTIVE, 2, 0)
	pure.Seed = 5
	res, err := RunMulti(server, mixed, pure)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells[0].ClientsByScheme(SchemeFLARE)) != 2 ||
		len(res.Cells[0].ClientsByScheme(SchemeFESTIVE)) != 1 {
		t.Fatalf("mixed cell group shapes wrong: %+v", res.Cells[0].Clients)
	}
	if n, _, _ := server.LastSolve(0); n == 0 {
		t.Error("mixed cell's FLARE group ran no solves")
	}
	if n, _, _ := server.LastSolve(1); n != 0 {
		t.Errorf("pure FESTIVE cell ran %d solves", n)
	}
}

// unmanagedWatch is a trace sink that checks, at every event of a run,
// that no bearer from flow ID `from` on holds a GBR and that no install
// names such a flow.
type unmanagedWatch struct {
	s        *Sim
	from     int
	installs int
	err      error
}

func (w *unmanagedWatch) Write(e *obs.Event) error {
	if w.err != nil || w.s == nil {
		return nil
	}
	if e.Kind == obs.KindInstall {
		w.installs++
		if int(e.Flow) >= w.from {
			w.err = fmt.Errorf("TTI %d: install names unmanaged flow %d", e.TTI, e.Flow)
		}
	}
	for i := w.from; i < len(w.s.videoSlab); i++ {
		if b := w.s.videoSlab[i].Bearer; b.GBRBits != 0 {
			w.err = fmt.Errorf("TTI %d: unmanaged flow %d holds a %.0f bps GBR", e.TTI, i, b.GBRBits)
		}
	}
	return nil
}

func (w *unmanagedWatch) Close() error { return nil }

// TestSectionVCoexistence is the paper's Section V deployment: a
// conventional player that no network controller manages is "serviced
// like other data traffic without any bitrate guarantees". Next to a
// FLARE group and next to an AVIS group, a FESTIVE group's bearers are
// data-class, never hold a GBR and are never named by an install, and
// AVIS's video slice is sized from the AVIS group alone.
func TestSectionVCoexistence(t *testing.T) {
	const nManaged, nFestive, nData = 3, 2, 1
	for _, managed := range []Scheme{SchemeFLARE, SchemeAVIS} {
		t.Run(managed.String(), func(t *testing.T) {
			cfg := quickConfig(managed, 0, nData)
			cfg.Duration = 60 * time.Second
			cfg.VideoGroups = []FlowGroup{
				{Scheme: managed, Count: nManaged},
				{Scheme: SchemeFESTIVE, Count: nFestive},
			}
			watch := &unmanagedWatch{from: nManaged}
			cfg.Obs = obs.New(obs.Options{RingSize: -1, Sinks: []obs.Sink{watch}})
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			watch.s = s
			for i := range s.videoSlab {
				want := lte.ClassVideo
				if i >= nManaged {
					want = lte.ClassData
				}
				if got := s.videoSlab[i].Bearer.Class; got != want {
					t.Errorf("flow %d rides a %v bearer, want %v", i, got, want)
				}
			}
			if managed == SchemeAVIS {
				sliced, ok := s.enb.Scheduler().(lte.SlicedScheduler)
				want := float64(nManaged) / float64(nManaged+nFestive+nData)
				if !ok || sliced.VideoFraction != want {
					t.Errorf("AVIS cell scheduler %#v, want a video slice of %.3f (the AVIS group alone)",
						s.enb.Scheduler(), want)
				}
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if watch.err != nil {
				t.Fatal(watch.err)
			}
			if managed == SchemeFLARE && watch.installs == 0 {
				t.Fatal("the FLARE group saw no installs")
			}
			for i := nManaged; i < len(s.videoSlab); i++ {
				if b := s.videoSlab[i].Bearer; b.GBRBits != 0 {
					t.Errorf("unmanaged flow %d ends holding a %.0f bps GBR", i, b.GBRBits)
				}
			}
			for _, c := range res.ClientsByScheme(SchemeFESTIVE) {
				if c.Segments < 10 {
					t.Errorf("FESTIVE client %d starved: %d segments", c.FlowID, c.Segments)
				}
			}
		})
	}
}
