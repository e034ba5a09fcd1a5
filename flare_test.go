package flare

import (
	"net/http/httptest"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/oneapi"
)

func TestFacadeQuickScenario(t *testing.T) {
	cfg := DefaultScenario(SchemeFLARE)
	cfg.Duration = 60 * time.Second
	cfg.NumVideo = 2
	cfg.SegmentDuration = 2 * time.Second
	cfg.Channel = ChannelSpec{Kind: ChannelStatic, StaticITbs: 10}
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clients) != 2 {
		t.Fatalf("%d clients", len(res.Clients))
	}
	if res.MeanClientRate() <= 0 {
		t.Fatal("no video delivered")
	}
}

func TestFacadeLadders(t *testing.T) {
	if TestbedLadder().Len() != 8 || SimLadder().Len() != 6 || FineLadder().Len() != 12 {
		t.Fatal("ladder lengths wrong")
	}
	if l := NewLadderKbps(100, 200); l.Rate(1) != 200_000 {
		t.Fatal("NewLadderKbps wrong")
	}
}

func TestFacadeController(t *testing.T) {
	c := NewController(DefaultControllerConfig())
	if err := c.Register(1, SimLadder(), Preferences{}); err != nil {
		t.Fatal(err)
	}
	as, err := c.RunBAI(map[int]FlowStats{1: {Bytes: 100_000, RBs: 10_000}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 1 {
		t.Fatalf("assignments %v", as)
	}
}

func TestFacadeMetrics(t *testing.T) {
	if j := JainIndex([]float64{1, 1, 1}); j != 1 {
		t.Fatalf("Jain = %v", j)
	}
	if h := HarmonicMean([]float64{2, 2}); h != 2 {
		t.Fatalf("harmonic = %v", h)
	}
}

func TestFacadeMultiCell(t *testing.T) {
	server := NewOneAPIServer(DefaultControllerConfig())
	cfg := DefaultScenario(SchemeFLARE)
	cfg.Duration = 45 * time.Second
	cfg.NumVideo = 2
	cfg.SegmentDuration = 2 * time.Second
	cfg.Channel = ChannelSpec{Kind: ChannelStatic, StaticITbs: 10}
	res, err := RunMultiCell(server, cfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("%d cells", len(res.Cells))
	}
}

func TestFacadeOneAPIHTTPRoundTrip(t *testing.T) {
	server := NewOneAPIServer(DefaultControllerConfig())
	ts := httptest.NewServer(OneAPIHandler(server))
	defer ts.Close()

	plugin := NewOneAPIClient(ts.URL, 0, 1, ts.Client())
	if err := plugin.Open(SimLadder(), Preferences{}); err != nil {
		t.Fatal(err)
	}
	defer plugin.Close()
	if _, err := server.RunBAI(0, oneapi.StatsReport{
		Flows: map[int]FlowStats{1: {Bytes: 100_000, RBs: 10_000}},
	}, nil); err != nil {
		t.Fatal(err)
	}
	a, ok, err := plugin.Poll()
	if err != nil || !ok || a.RateBps <= 0 {
		t.Fatalf("poll: %+v ok=%v err=%v", a, ok, err)
	}
}
