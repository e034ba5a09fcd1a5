package cellsim

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/cellsim/driver"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/sim"
)

// quickConfig returns a fast-running scenario: 2 s segments, 2 s BAI,
// 120 s duration.
func quickConfig(scheme Scheme, nVideo, nData int) Config {
	cfg := DefaultConfig(scheme)
	cfg.Duration = 120 * time.Second
	cfg.NumVideo = nVideo
	cfg.NumData = nData
	cfg.SegmentDuration = 2 * time.Second
	cfg.Flare.BAI = 2 * time.Second
	cfg.Flare.Delta = 1
	cfg.Channel = ChannelSpec{Kind: ChannelStatic, StaticITbs: 10}
	return cfg
}

func TestConfigValidate(t *testing.T) {
	cyclic := func(lo, hi int) ChannelSpec {
		return ChannelSpec{Kind: ChannelCyclic, CyclicMin: lo, CyclicMax: hi, CyclicPeriod: time.Minute}
	}
	good := []func(*Config){
		func(*Config) {},
		// An iTbs at either end of [lte.MinITbs, lte.MaxITbs].
		func(c *Config) { c.Channel.StaticITbs = lte.MinITbs },
		func(c *Config) { c.Channel.StaticITbs = lte.MaxITbs },
		func(c *Config) { c.Channel = cyclic(lte.MinITbs, lte.MaxITbs) },
	}
	for i, mutate := range good {
		cfg := quickConfig(SchemeFLARE, 2, 1)
		mutate(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("good mutation %d rejected: %v", i, err)
		}
	}
	bad := []func(*Config){
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.NumVideo = -1 },
		func(c *Config) { c.NumVideo, c.NumData = 0, 0 },
		func(c *Config) { c.Ladder = has.Ladder{} },
		func(c *Config) { c.SegmentDuration = 0 },
		func(c *Config) { c.Scheme = Scheme(99) },
		func(c *Config) { c.Channel.Kind = ChannelKind(99) },
		func(c *Config) { c.Channel = ChannelSpec{Kind: ChannelCyclic} },
		func(c *Config) { c.Channel = ChannelSpec{Kind: ChannelTrace} },
		// An iTbs outside [lte.MinITbs, lte.MaxITbs] is refused, not
		// clamped.
		func(c *Config) { c.Channel.StaticITbs = lte.MinITbs - 1 },
		func(c *Config) { c.Channel.StaticITbs = lte.MaxITbs + 1 },
		func(c *Config) { c.Channel.StaticITbs = 99 },
		func(c *Config) { c.Channel = cyclic(lte.MinITbs-1, 12) },
		func(c *Config) { c.Channel = cyclic(1, lte.MaxITbs+1) },
		// A NaN jitter would size every segment int64(NaN) bytes.
		func(c *Config) { c.VBRJitter = math.NaN() },
	}
	for i, mutate := range bad {
		cfg := quickConfig(SchemeFLARE, 2, 1)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestSchemeString: every Scheme constant has a row of the scheme table.
// Its names round-trip through String and ParseScheme, and its driver
// builds with the scheduler policy and control interval of its family.
// Names and numbers outside the table are refused, naming the known ones.
func TestSchemeString(t *testing.T) {
	rows := []struct {
		scheme   Scheme
		name     string
		policy   driver.SchedulerPolicy
		interval time.Duration
	}{
		// A zero controller configuration: the BAI falls back to 1 s,
		// in the driver's ticks as in its controller.
		{SchemeFLARE, "FLARE", driver.PolicyGBR, time.Second},
		{SchemeFESTIVE, "FESTIVE", driver.PolicyBestEffort, 0},
		{SchemeGOOGLE, "GOOGLE", driver.PolicyBestEffort, 0},
		// AVIS's 150 ms epoch (Table IV's W).
		{SchemeAVIS, "AVIS", driver.PolicySliced, 150 * time.Millisecond},
		{SchemeBBA, "BBA", driver.PolicyBestEffort, 0},
		{SchemeMPC, "MPC", driver.PolicyBestEffort, 0},
	}
	covered := map[Scheme]bool{failScheme: true}
	for _, r := range rows {
		covered[r.scheme] = true
		if got := r.scheme.String(); got != r.name {
			t.Errorf("%d.String() = %q, want %q", int(r.scheme), got, r.name)
		}
		if got, err := ParseScheme(strings.ToLower(r.name)); err != nil || got != r.scheme {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", strings.ToLower(r.name), got, err, r.scheme)
		}
		c := schemes[r.scheme].build(driver.Config{Count: 1, SegmentSeconds: 2, RNG: sim.NewRNG(1)})
		if p := c.SchedulerPolicy(); p != r.policy {
			t.Errorf("%v driver demands policy %d, want %d", r.scheme, p, r.policy)
		}
		if d := c.Interval(); d != r.interval {
			t.Errorf("%v driver ticks every %v, want %v", r.scheme, d, r.interval)
		}
		if a, err := c.NewAdapter(0); err != nil || a == nil {
			t.Errorf("%v adapter: %v %v", r.scheme, a, err)
		}
	}
	for _, s := range knownSchemes() {
		if !covered[s] {
			t.Errorf("scheme %v has a table row but no case here", s)
		}
	}
	if Scheme(0).String() != "Scheme(0)" {
		t.Errorf("Scheme(0).String() = %q", Scheme(0).String())
	}
	// Command-line names are the lower-case ones, exactly.
	for _, name := range []string{"", "NOPE", "FLARE", "flare "} {
		_, err := ParseScheme(name)
		if err == nil || !strings.Contains(err.Error(), "unknown scheme") || !strings.Contains(err.Error(), "flare") {
			t.Errorf("ParseScheme(%q): %v, want an unknown-scheme error naming the known ones", name, err)
		}
	}
	cfg := quickConfig(Scheme(42), 2, 1)
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "unknown scheme") || !strings.Contains(err.Error(), "FLARE") {
		t.Errorf("Validate with Scheme(42): %v, want an unknown-scheme error naming the known ones", err)
	}
	cfg = quickConfig(SchemeFLARE, 0, 1)
	cfg.VideoGroups = []FlowGroup{{Scheme: Scheme(42), Count: 2}}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "unknown scheme") || !strings.Contains(err.Error(), "FLARE") {
		t.Errorf("Validate with a Scheme(42) group: %v, want an unknown-scheme error naming the known ones", err)
	}
}

func TestRunAllSchemesComplete(t *testing.T) {
	for _, scheme := range []Scheme{SchemeFLARE, SchemeFESTIVE, SchemeGOOGLE, SchemeAVIS} {
		res, err := Run(quickConfig(scheme, 3, 1))
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if len(res.Clients) != 3 || len(res.Data) != 1 {
			t.Fatalf("%v: %d clients, %d data", scheme, len(res.Clients), len(res.Data))
		}
		for _, c := range res.Clients {
			if c.Segments < 10 {
				t.Fatalf("%v: client %d only downloaded %d segments", scheme, c.FlowID, c.Segments)
			}
			if c.AvgRateBps <= 0 {
				t.Fatalf("%v: client %d zero average rate", scheme, c.FlowID)
			}
		}
		if res.Data[0].AvgTputBps <= 0 {
			t.Fatalf("%v: data flow got nothing", scheme)
		}
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	cfg := quickConfig(SchemeFLARE, 2, 1)
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
			t.Fatalf("client %d differs across identical runs:\n%+v\n%+v", i, a.Clients[i], b.Clients[i])
		}
	}
	// Seed sensitivity: use a scheme and channel with real randomness
	// (FESTIVE pacing jitter on a mobility channel).
	mob := quickConfig(SchemeFESTIVE, 3, 0)
	mob.Channel = ChannelSpec{Kind: ChannelMobility}
	mob.Duration = 60 * time.Second
	r1, err := Run(mob)
	if err != nil {
		t.Fatal(err)
	}
	mob.Seed = 99
	r2, err := Run(mob)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range r1.Clients {
		if r1.Clients[i] != r2.Clients[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical mobility results")
	}
}

func TestFLAREStableAndStallFree(t *testing.T) {
	res, err := Run(quickConfig(SchemeFLARE, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clients {
		if c.StallSeconds > 0 {
			t.Errorf("FLARE client %d stalled %.1f s", c.FlowID, c.StallSeconds)
		}
	}
	if len(res.SolveTimesSec) == 0 {
		t.Error("no solver times recorded")
	}
}

func TestFLAREMoreStableThanFESTIVE(t *testing.T) {
	// The paper's central stability claim, on the dynamic (cyclic MCS)
	// scenario where link variability stresses client-side estimation.
	dyn := func(scheme Scheme) Config {
		cfg := quickConfig(scheme, 3, 1)
		cfg.Duration = 600 * time.Second
		cfg.Ladder = has.TestbedLadder()
		cfg.Channel = ChannelSpec{
			Kind: ChannelCyclic, CyclicMin: 1, CyclicMax: 12,
			CyclicPeriod: 120 * time.Second,
		}
		cfg.Flare.Delta = 4
		return cfg
	}
	flare, err := Run(dyn(SchemeFLARE))
	if err != nil {
		t.Fatal(err)
	}
	festive, err := Run(dyn(SchemeFESTIVE))
	if err != nil {
		t.Fatal(err)
	}
	if flare.MeanChanges() >= festive.MeanChanges() {
		t.Fatalf("FLARE changes %.1f >= FESTIVE %.1f",
			flare.MeanChanges(), festive.MeanChanges())
	}
}

func TestFLAREClimbsToUsefulRate(t *testing.T) {
	cfg := quickConfig(SchemeFLARE, 2, 0)
	cfg.Duration = 180 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// iTbs 10 is ~9 Mbps; 2 clients with no data flows must climb well
	// above the lowest rung by the end of 180 s.
	for _, c := range res.Clients {
		if c.AvgRateBps < 200_000 {
			t.Errorf("client %d average rate only %.0f bps", c.FlowID, c.AvgRateBps)
		}
	}
}

func TestAVISSliceLimitsDataWhenVideoIdle(t *testing.T) {
	// AVIS statically reserves the video slice, so a lone data flow
	// cannot use the whole cell even when video demand is low;
	// under FLARE the same data flow gets strictly more.
	avisRes, err := Run(quickConfig(SchemeAVIS, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	flareRes, err := Run(quickConfig(SchemeFLARE, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if avisRes.Data[0].AvgTputBps >= flareRes.Data[0].AvgTputBps {
		t.Fatalf("AVIS data %.0f >= FLARE data %.0f despite static slicing",
			avisRes.Data[0].AvgTputBps, flareRes.Data[0].AvgTputBps)
	}
}

func TestSeriesCollection(t *testing.T) {
	cfg := quickConfig(SchemeFLARE, 2, 1)
	cfg.CollectSeries = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.VideoRateSeries) != 2 || len(res.BufferSeries) != 2 || len(res.DataTputSeries) != 1 {
		t.Fatalf("series counts %d/%d/%d", len(res.VideoRateSeries), len(res.BufferSeries), len(res.DataTputSeries))
	}
	// ~119 samples for 120 s at 1 Hz.
	if n := res.VideoRateSeries[0].Len(); n < 100 {
		t.Fatalf("rate series has %d samples", n)
	}
	// Buffers must stay non-negative and bounded.
	for _, ts := range res.BufferSeries {
		for _, p := range ts.Points() {
			if p.Y < 0 || p.Y > 60 {
				t.Fatalf("implausible buffer sample %v", p)
			}
		}
	}
}

func TestNoSeriesByDefault(t *testing.T) {
	res, err := Run(quickConfig(SchemeGOOGLE, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.VideoRateSeries != nil {
		t.Fatal("series collected without CollectSeries")
	}
}

func TestResultAccessors(t *testing.T) {
	res, err := Run(quickConfig(SchemeFESTIVE, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AvgRates()) != 2 || len(res.Changes()) != 2 || len(res.AvgTputs()) != 2 {
		t.Fatal("accessor lengths wrong")
	}
	if len(res.DataTputs()) != 1 {
		t.Fatal("data accessor wrong")
	}
	if j := res.JainOfTputs(); j <= 0 || j > 1 {
		t.Fatalf("Jain = %v", j)
	}
	if j := res.JainOfRates(); j <= 0 || j > 1 {
		t.Fatalf("Jain rates = %v", j)
	}
	if res.MeanClientRate() <= 0 {
		t.Fatal("mean rate non-positive")
	}
	if res.TotalStallSeconds() < 0 {
		t.Fatal("negative stalls")
	}
}

func TestMobilityScenarioRuns(t *testing.T) {
	cfg := quickConfig(SchemeFLARE, 4, 0)
	cfg.Channel = ChannelSpec{Kind: ChannelMobility}
	cfg.Duration = 60 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clients {
		if c.Segments == 0 {
			t.Fatal("mobile client downloaded nothing")
		}
	}
}

// TestZeroMobilitySpecIsTheDefault: a mobility channel given no
// parameters (examples/mobility's spec) runs exactly as one given
// lte.DefaultMobilityConfig, and a non-default one does not.
func TestZeroMobilitySpecIsTheDefault(t *testing.T) {
	run := func(mob lte.MobilityConfig) *Result {
		t.Helper()
		cfg := quickConfig(SchemeFLARE, 3, 1)
		cfg.Duration = 60 * time.Second
		cfg.Channel = ChannelSpec{Kind: ChannelMobility, Mobility: mob}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stripWallClock(res)
	}
	zero := run(lte.MobilityConfig{})
	if def := run(lte.DefaultMobilityConfig(4)); !reflect.DeepEqual(zero, def) {
		t.Fatalf("zero mobility spec diverged from the default:\nzero    %+v\ndefault %+v", zero, def)
	}
	slow := lte.DefaultMobilityConfig(4)
	slow.MinSpeed, slow.MaxSpeed = 0.8, 1.5
	if reflect.DeepEqual(zero, run(slow)) {
		t.Fatal("pedestrian speeds gave the default's result: the comparison sees nothing")
	}
}

func TestCyclicScenarioRuns(t *testing.T) {
	cfg := quickConfig(SchemeGOOGLE, 2, 1)
	cfg.Channel = ChannelSpec{
		Kind: ChannelCyclic, CyclicMin: 1, CyclicMax: 12,
		CyclicPeriod: 30 * time.Second,
	}
	cfg.Duration = 90 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clients[0].Segments == 0 {
		t.Fatal("cyclic client downloaded nothing")
	}
}

func TestTraceScenarioRuns(t *testing.T) {
	cfg := quickConfig(SchemeFESTIVE, 2, 0)
	cfg.Channel = ChannelSpec{
		Kind:      ChannelTrace,
		Traces:    [][]int{{4, 8, 12, 8}, {12, 8, 4, 8}},
		TraceStep: 5 * time.Second,
	}
	cfg.Duration = 60 * time.Second
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDataOnlyScenario(t *testing.T) {
	cfg := quickConfig(SchemeFLARE, 0, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clients) != 0 || len(res.Data) != 2 {
		t.Fatal("data-only scenario wrong shape")
	}
	for _, d := range res.Data {
		if d.AvgTputBps <= 0 {
			t.Fatal("data flow starved")
		}
	}
}

func TestBadMobilitySpecPropagates(t *testing.T) {
	cfg := quickConfig(SchemeFLARE, 2, 0)
	mob := lte.DefaultMobilityConfig(2)
	mob.MinSpeed, mob.MaxSpeed = 5, 1 // inverted
	cfg.Channel = ChannelSpec{Kind: ChannelMobility, Mobility: mob}
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid mobility config accepted")
	}
}

// TestSeriesSampledEverySecond: CollectSeries records one point per
// simulated second, at each whole second inside the run.
func TestSeriesSampledEverySecond(t *testing.T) {
	cfg := quickConfig(SchemeFLARE, 1, 0)
	cfg.CollectSeries = true
	cfg.Duration = 30 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.VideoRateSeries[0].Points()
	if len(pts) != 29 {
		t.Fatalf("%d samples over 30 s, want 29 (at 1 s .. 29 s)", len(pts))
	}
	for i, p := range pts {
		if p.X != float64(i+1) {
			t.Fatalf("sample %d at %v s, want %d s", i, p.X, i+1)
		}
	}
}
