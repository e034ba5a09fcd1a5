package flaresuite

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/flare-sim/flare/internal/cellsim"
	"github.com/flare-sim/flare/internal/metrics"
	"github.com/flare-sim/flare/internal/sim"
)

// tinyScale keeps report tests fast: 30 s scenarios, 1 run.
func tinyScale() Scale { return Scale{DurationFactor: 0.025, Runs: 1} }

// within runs body as a scenario at scale, outside the table and its
// acceptance gates, and fails the test if the body fails.
func within(tb testing.TB, scale Scale, body func(*T)) {
	tb.Helper()
	pool := sim.NewWorkerPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	inst := Instance{Spec: ScenarioSpec{Name: "test", Run: body}, Name: "test"}
	if sc := runInstance(context.Background(), inst, scale, "", pool); sc.Status != StatusPass {
		tb.Fatalf("scenario body failed: %v", sc.Failures)
	}
}

// buildReport builds one report at scale without its spec's gates.
func buildReport(tb testing.TB, build func(*T) *Report, scale Scale) *Report {
	tb.Helper()
	var rep *Report
	within(tb, scale, func(t *T) { rep = build(t) })
	return rep
}

// reportBuilders lists the report specs' builders in table order, so
// their reports can be built without the specs' acceptance gates.
var reportBuilders = []struct {
	name  string
	build func(*T) *Report
}{
	{"table1", table1}, {"table2", table2}, {"fig4", fig4}, {"fig5", fig5},
	{"fig6", fig6}, {"fig7", fig7}, {"fig8", fig8}, {"fig9", fig9},
	{"fig10", fig10}, {"fig11", fig11}, {"fig12", fig12},
	{"ext-coexist", extCoexist}, {"ext-abr", extABR},
	{"ext-faults", extFaults}, {"ext-saturation", extSaturation},
}

// TestScenarioTable pins the shipped table: the 15 report specs in
// paper order, then the three matrix-native ones, each complete and
// valid (Expand checks names, uniqueness, axes and matrices), and the
// full matrix expansion's 22 instances.
func TestScenarioTable(t *testing.T) {
	want := []string{"table1", "table2", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "ext-coexist", "ext-abr",
		"ext-faults", "ext-saturation", "flash-crowd", "het-ladders", "churn-soak"}
	all := Scenarios()
	if len(all) != len(want) {
		t.Fatalf("table has %d specs, want %d", len(all), len(want))
	}
	for i, s := range all {
		if s.Name != want[i] {
			t.Errorf("spec %d = %q, want %q", i, s.Name, want[i])
		}
		if s.Run == nil || s.Description == "" {
			t.Errorf("spec %q incomplete", s.Name)
		}
	}
	for i, r := range reportBuilders {
		if r.name != want[i] {
			t.Errorf("report builder %d = %q, want %q", i, r.name, want[i])
		}
	}
	insts, err := Expand(all, Options{Expand: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 22 {
		t.Errorf("Expand(matrix): %d instances, want 22 (15 report specs + 7 matrix points)", len(insts))
	}
}

// TestByID pins selection by name: Expand picks the named spec alone
// and refuses a name the table does not hold.
func TestByID(t *testing.T) {
	insts, err := Expand(Scenarios(), Options{Names: []string{"fig6"}})
	if err != nil || len(insts) != 1 || insts[0].Spec.Name != "fig6" {
		t.Fatalf("Expand(fig6) = %+v, %v", insts, err)
	}
	if _, err := Expand(Scenarios(), Options{Names: []string{"nope"}}); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestScaleNormalization(t *testing.T) {
	s := Scale{}.normalized()
	if s.DurationFactor != 1 || s.Runs != 1 {
		t.Fatalf("normalized zero scale = %+v", s)
	}
	if f := FullScale(); f.Runs != 20 || f.DurationFactor != 1 {
		t.Fatalf("FullScale = %+v", f)
	}
	if q := QuickScale(); q.Runs < 1 {
		t.Fatalf("QuickScale = %+v", q)
	}
}

func TestTable1SmokeAndShape(t *testing.T) {
	rep := buildReport(t, table1, tinyScale())
	if len(rep.Tables) != 1 {
		t.Fatalf("%d tables", len(rep.Tables))
	}
	out := rep.String()
	for _, want := range []string{"FESTIVE", "GOOGLE", "FLARE",
		"Average video rate", "Jain", "data flow"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig4ProducesSeries(t *testing.T) {
	rep := buildReport(t, fig4, tinyScale())
	// 3 schemes x (3 video rate + 3 buffer + 1 data) = 21 series.
	if len(rep.Series) != 21 {
		t.Fatalf("%d series, want 21", len(rep.Series))
	}
	for _, s := range rep.Series {
		if len(s.Points) == 0 {
			t.Fatalf("series %q empty", s.Name)
		}
	}
}

func TestFig6SmokeAndCDFShape(t *testing.T) {
	rep := buildReport(t, fig6, tinyScale())
	if len(rep.Series) != 6 { // 3 schemes x 2 metrics
		t.Fatalf("%d series, want 6", len(rep.Series))
	}
	for _, s := range rep.Series {
		last := s.Points[len(s.Points)-1]
		if last.Y != 1 {
			t.Errorf("CDF %q does not reach 1: %v", s.Name, last)
		}
	}
	if len(rep.Notes) == 0 {
		t.Error("no notes")
	}
}

func TestFig9RecordsSolveTimes(t *testing.T) {
	// Short but real runs: several BAIs per size.
	rep := buildReport(t, fig9, Scale{DurationFactor: 0.05, Runs: 1})
	if len(rep.Series) != 6 { // 2 solvers x 3 sizes
		t.Fatalf("%d series, want 6", len(rep.Series))
	}
	for _, s := range rep.Series {
		if len(s.Points) == 0 {
			t.Fatalf("series %q empty", s.Name)
		}
		for _, p := range s.Points {
			if p.X < 0 || p.X > 10_000 {
				t.Fatalf("implausible solve time %v ms in %q", p.X, s.Name)
			}
		}
	}
}

func TestFig12SweepShape(t *testing.T) {
	rep := buildReport(t, fig12, Scale{DurationFactor: 0.025, Runs: 1})
	if len(rep.Series) != 2 {
		t.Fatalf("%d series", len(rep.Series))
	}
	for _, s := range rep.Series {
		if len(s.Points) != 13 { // delta 0..12
			t.Fatalf("series %q has %d points, want 13", s.Name, len(s.Points))
		}
	}
}

func TestReportWriteFiles(t *testing.T) {
	dir := t.TempDir()
	rep := &Report{
		ID:    "fake",
		Title: "Fake",
		Series: []metrics.Series{
			{Name: "s", Points: []metrics.Point{{X: 1, Y: 2}}},
		},
	}
	rep.Notef("hello %d", 42)
	if err := rep.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	txt, err := os.ReadFile(filepath.Join(dir, "fake.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(txt), "hello 42") {
		t.Fatalf("txt missing note: %s", txt)
	}
	csvData, err := os.ReadFile(filepath.Join(dir, "fake.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csvData), "s,1,2") {
		t.Fatalf("csv wrong: %s", csvData)
	}
}

// TestRunManyDeterministicSeeds pins the seeded-run loop: the same
// config run twice through the worker pool yields the same results in
// the same run order.
func TestRunManyDeterministicSeeds(t *testing.T) {
	scale := Scale{DurationFactor: 0.025, Runs: 2}
	var a, b []*cellsim.Result
	within(t, scale, func(t *T) {
		cfg := TestbedConfig(cellsim.SchemeFESTIVE, false, t.scale)
		a, b = t.runs(cfg), t.runs(cfg)
	})
	for i := range a {
		if a[i].MeanClientRate() != b[i].MeanClientRate() {
			t.Fatal("seeded runs not deterministic")
		}
	}
}

func TestExtensionExperimentsSmoke(t *testing.T) {
	for _, build := range []func(*T) *Report{extCoexist, extABR, extFaults, extSaturation} {
		rep := buildReport(t, build, tinyScale())
		if len(rep.Tables) == 0 || len(rep.Series) == 0 {
			t.Fatalf("%s produced no output", rep.ID)
		}
	}
}

// TestExtCoexistShape is the acceptance gate for the mixed-scheme
// coexistence story: in one cell holding 4 FLARE-coordinated and 4
// conventional FESTIVE players, the coordinated group keeps its GBR
// guarantees — zero rebuffering — and switches bitrate less than the
// uncoordinated group chasing its own throughput estimates.
func TestExtCoexistShape(t *testing.T) {
	scale := Scale{DurationFactor: 0.2, Runs: 2}
	var results []*cellsim.Result
	within(t, scale, func(t *T) { results = t.runs(t.build(coexistAxes)) })
	var flareStalls, flareChanges, festiveChanges float64
	var nFlare, nFestive int
	for _, r := range results {
		flare := r.ClientsByScheme(cellsim.SchemeFLARE)
		festive := r.ClientsByScheme(cellsim.SchemeFESTIVE)
		if len(flare) != 4 || len(festive) != 4 {
			t.Fatalf("group shapes: %d FLARE, %d FESTIVE (want 4+4)", len(flare), len(festive))
		}
		for _, c := range flare {
			if c.Segments == 0 {
				t.Errorf("FLARE client %d downloaded nothing", c.FlowID)
			}
			flareStalls += c.StallSeconds
			flareChanges += float64(c.NumChanges)
			nFlare++
		}
		for _, c := range festive {
			festiveChanges += float64(c.NumChanges)
			nFestive++
		}
	}
	if flareStalls > 0 {
		t.Errorf("coordinated FLARE players rebuffered %.1f s total; guarantees should prevent any", flareStalls)
	}
	if flareChanges/float64(nFlare) >= festiveChanges/float64(nFestive) {
		t.Errorf("FLARE switched %.1f times/client vs FESTIVE's %.1f — coordination should switch less",
			flareChanges/float64(nFlare), festiveChanges/float64(nFestive))
	}
}

// TestExtFaultsNeverBelowBaseline is the acceptance gate for the
// fault-tolerance story: under every swept control-plane loss rate the
// degraded FLARE must hold a mean QoE at or above the pure client-side
// baseline (a degraded plugin *is* a client-side player). extFaults
// emits a WARNING note whenever a sweep point violates that.
func TestExtFaultsNeverBelowBaseline(t *testing.T) {
	rep := buildReport(t, extFaults, Scale{DurationFactor: 0.05, Runs: 2})
	for _, n := range rep.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("degradation floor violated: %s", n)
		}
	}
	var qoeSeries, fbSeries bool
	for _, s := range rep.Series {
		switch s.Name {
		case "flare/qoe_vs_ctrl_loss":
			qoeSeries = len(s.Points) == len(extFaultsLossRates)
		case "flare/fallback_bais_vs_ctrl_loss":
			fbSeries = len(s.Points) > 0
			// Heavier loss must produce at least as much fallback.
			if last := s.Points[len(s.Points)-1]; last.Y == 0 {
				t.Error("50% control loss produced zero fallback intervals")
			}
		}
	}
	if !qoeSeries || !fbSeries {
		t.Fatalf("sweep series missing or short: %+v", rep.Series)
	}
}

func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("the every-report smoke is not for -short")
	}
	for _, r := range reportBuilders {
		t.Run(r.name, func(t *testing.T) {
			rep := buildReport(t, r.build, tinyScale())
			if len(rep.Tables) == 0 && len(rep.Series) == 0 {
				t.Fatal("no output")
			}
			if rep.ID != r.name {
				t.Fatalf("report ID %q != spec name %q", rep.ID, r.name)
			}
			if err := rep.WriteFiles(t.TempDir()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestExtSaturationGate is the acceptance gate for the saturation story:
// pushed to and past twice its floor-carrying capacity by churn, FLARE
// with admission control and the downgrade ladder must (a) keep every
// admitted flow free of post-admission rebuffering and (b) deliver
// strictly higher QoE among its admitted flows than naive FLARE does
// among its universally admitted ones. extSaturation emits a WARNING
// note whenever a sweep point at >=2x violates either clause.
func TestExtSaturationGate(t *testing.T) {
	rep := buildReport(t, extSaturation, Scale{DurationFactor: 0.15, Runs: 2})
	for _, n := range rep.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("saturation gate violated: %s", n)
		}
	}
	var share metrics.Series
	for _, s := range rep.Series {
		if s.Name == "flare-robust/admitted_share_vs_load" {
			share = s
		}
	}
	if len(share.Points) != len(extSatLoads) {
		t.Fatalf("admitted-share series missing or short: %+v", rep.Series)
	}
	// Past capacity the controller must actually refuse someone —
	// otherwise the zero-stall clause is vacuously testing an idle gate.
	if last := share.Points[len(share.Points)-1]; last.Y >= 1 {
		t.Errorf("no session was refused at %gx overload (admitted share %v)", last.X, last.Y)
	}
}

// TestReportGolden pins report bytes: table1 and ext-faults at factor
// 0.025 / 1 run, run through the scenario table, must reproduce
// testdata/*.golden exactly.
func TestReportGolden(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(context.Background(), Scenarios(), Options{
		Factor: 0.025, Runs: 1, OutDir: dir, Names: []string{"table1", "ext-faults"},
	}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"table1/table1.txt", "ext-faults/ext-faults.txt", "ext-faults/ext-faults.csv"} {
		got, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", filepath.Base(f)+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s differs from testdata/%s.golden:\n%s", f, filepath.Base(f), got)
		}
	}
}
