package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/cellsim"
)

// testScale runs every workload at about 1/50 of its size; the floors
// in workloads() keep each one large enough to exercise its paths.
const testScale = 0.02

func TestQuantilesAreExact(t *testing.T) {
	samples := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}} {
		if got := quantile(append([]float64(nil), samples...), c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(samples)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got, want := spreadShare(samples), 1.0; got != want {
		t.Errorf("spreadShare = %v, want %v", got, want)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "wire", Name: "stats", StartNs: 0, EndNs: 100},
		// Two overlapping children cover [10, 50); a third sticks out
		// past the parent and is clipped to [90, 100).
		{ID: 2, Parent: 1, Layer: "http", Name: "stats", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Layer: "http", Name: "stats", StartNs: 20, EndNs: 50},
		{ID: 4, Parent: 1, Layer: "http", Name: "stats", StartNs: 90, EndNs: 130},
		{ID: 5, Parent: 2, Layer: "core", Name: "solve", StartNs: 12, EndNs: 20},
	}
	got := make(map[string]layerTime)
	for _, lt := range selfTimes(spans) {
		got[lt.Layer] = lt
	}
	if lt := got["wire"]; lt.TotalNs != 100 || lt.SelfNs != 50 {
		t.Errorf("wire: total %d self %d, want 100 and 50", lt.TotalNs, lt.SelfNs)
	}
	if lt := got["http"]; lt.Spans != 3 || lt.TotalNs != 90 || lt.SelfNs != 82 {
		t.Errorf("http: %+v, want 3 spans, total 90, self 82", lt)
	}
	if lt := got["core"]; lt.SelfNs != 8 {
		t.Errorf("core self = %d, want 8", lt.SelfNs)
	}

	tr := newTracer("t")
	id, start, end := tr.nest(7, 1000, 2000, "core", "x", 400*time.Nanosecond, 3)
	if id != 1 || start != 1300 || end != 1700 {
		t.Errorf("nest = %d [%d, %d], want 1 [1300, 1700]", id, start, end)
	}
	var off *tracer
	if off.add(0, "a", "b", 0, 1, 0, false) != 0 || off.snapshot() != nil {
		t.Error("a nil tracer must record nothing")
	}
}

func TestResultDigest(t *testing.T) {
	run := func(seed uint64) *cellsim.Result {
		r, err := cellsim.Run(busyCell(seed, 20))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b, other := run(1), run(1), run(2)
	da, err := resultDigest(a)
	if err != nil {
		t.Fatal(err)
	}
	b.SolveTimesSec = append(b.SolveTimesSec, 42) // wall-clock noise must not count
	if db, _ := resultDigest(b); db != da {
		t.Errorf("same seed, digests %s and %s", da, db)
	}
	if do, _ := resultDigest(other); do == da {
		t.Error("different seeds gave the same digest")
	}
	if mix(1, 2) == mix(1, 3) || mix(1, 2) != mix(1, 2) {
		t.Error("mix must be a function of both arguments")
	}
}

// TestBenchmarkJSONInStep keeps BENCHMARK.json and the tables in the
// code saying the same thing.
func TestBenchmarkJSONInStep(t *testing.T) {
	root, err := findRepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default -seconds %d", f.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", f.PerLayer, perLayer)
	}
	ws := workloads(1, 2)
	if len(f.Workloads) != len(ws) {
		t.Fatalf("%d workloads in json, %d in code", len(f.Workloads), len(ws))
	}
	for i, w := range ws {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %+v, code %s / %s", i, f.Workloads[i], w.Name, w.Why)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		// The issue caps every bound at 10 %; the contract gives setup_s,
		// whose spread it does not judge, the largest one it allows.
		limit := 0.10
		if d.Name == "setup_s" {
			limit = 0.25
		}
		if d.Bound <= 0 || d.Bound > limit {
			t.Errorf("%s: bound %v outside (0, %v]", d.Name, d.Bound, limit)
		}
		hasSetup = hasSetup || d.Name == "setup_s"
	}
	if !hasSetup {
		t.Error("no setup_s among the end-to-end metrics")
	}
}

func smallOptions(name string, seconds float64, trace bool) (workload, options) {
	w, _ := findWorkload(name, testScale)
	return w, options{workload: name, seed: 7, seconds: seconds, trace: trace}
}

// TestWorkloadsSmall runs every workload end to end at a small scale:
// all checks green, no failed operation, every end-to-end metric
// present and non-zero. Under -short the two control-plane workloads
// are skipped, because they build and start the real oneapiserver.
func TestWorkloadsSmall(t *testing.T) {
	root, err := findRepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads(testScale, 2) {
		t.Run(w.Name, func(t *testing.T) {
			if w.Plane != nil && testing.Short() {
				t.Skip("needs the oneapiserver binary built and started")
			}
			seconds := 0.2
			if w.Plane != nil {
				seconds = 1.5
			}
			w, o := smallOptions(w.Name, seconds, false)
			res, err := runOne(root, w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			line := res.line()
			if len(line.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics in the line, want %d", len(line.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				v := line.Metrics[d.Name].Value
				if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", d.Name, v)
				}
			}
		})
	}
}

// TestTraceRunSmall runs the traced mode on one simulator and (unless
// -short) one control-plane workload: every per-layer metric is in the
// line and the trace file holds nested spans.
func TestTraceRunSmall(t *testing.T) {
	root, err := findRepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	old := layerBudget
	layerBudget = 2 * time.Millisecond
	defer func() { layerBudget = old }()
	for _, name := range []string{"cell_churn", "plane_dense"} {
		t.Run(name, func(t *testing.T) {
			w, o := smallOptions(name, 2, true)
			if w.Plane != nil && testing.Short() {
				t.Skip("needs the oneapiserver binary built and started")
			}
			res, err := runOne(root, w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("problems: %v", res.Problems)
			}
			line := res.line()
			for _, d := range perLayer {
				if _, ok := line.Metrics[d.Name]; !ok {
					t.Errorf("per-layer metric %s missing", d.Name)
				}
			}
			for _, must := range []string{"lte.tti_ns.all_active", "core.solve_exact_ns", "oneapi.poll_inproc_ns", "obs.emit_ns", "env.calibration_ns"} {
				if res.Values[must] <= 0 {
					t.Errorf("%s = %v", must, res.Values[must])
				}
			}
			if w.Plane != nil {
				// Self time can be 0 under -race (the instrumented twin is
				// slower than the real server), the spans must be there.
				var wireStats int
				for _, lt := range res.Layers {
					if lt.Layer == "wire" && lt.Name == "stats" {
						wireStats = lt.Spans
					}
				}
				if wireStats == 0 {
					t.Error("no wire stats span in the trace")
				}
			}
			if w.Sim != nil && res.Values["cellsim.ff_skipped_share"] <= 0 {
				t.Errorf("cellsim.ff_skipped_share = %v", res.Values["cellsim.ff_skipped_share"])
			}
			path := filepath.Join(outDir(root), name+".trace.jsonl")
			st, err := os.Stat(path)
			if err != nil || st.Size() == 0 {
				t.Errorf("trace file %s: %v", path, err)
			}
			if len(res.Layers) < 3 {
				t.Errorf("only %d kinds of span in the trace", len(res.Layers))
			}
		})
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v * 1.002, v * 0.998} }
	lower := metricDef{Name: "bai_rtt_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sim_simsec_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady(1), steady(1.05), "within-bound"},
		{lower, steady(1), steady(1.2), "regressed"},
		{lower, steady(1), steady(0.5), "within-bound"},
		{higher, steady(100), steady(80), "regressed"},
		{higher, steady(100), steady(130), "within-bound"},
		{higher, []float64{100, 60, 140, 80, 120}, steady(95), "unresolved"},
		{higher, []float64{100, 60, 140, 80, 120}, steady(200), "improved"},
		{higher, []float64{100, 60, 140, 80, 120}, steady(30), "regressed"},
		{lower, steady(30), []float64{100, 60, 140, 80, 120}, "regressed"},
		{metricDef{Name: "lte.tti_ns.all_active", Better: "lower"}, steady(1), steady(9), ""},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %q, want %q", c.d.Name, c.a[0], c.b[0], got, c.want)
		}
	}
}

func TestArguments(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "x", "--trace", "0", "-trace", "--seed", "3", "--trace", "1", "-trace"})
	want := []string{"--workload", "x", "-trace=0", "-trace=1", "--seed", "3", "-trace=1", "-trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %v, want %v", got, want)
	}
	// More driver connections than processors: refuse to start.
	if _, err := driverConns(&planeSpec{Cells: 8, Conns: 3}, 2); err == nil {
		t.Error("3 connections on 2 processors were not refused")
	}
	for _, c := range []struct{ conns, cells, nproc, want int }{{0, 8, 1, 1}, {0, 8, 16, 2}, {1, 8, 16, 1}, {0, 1, 16, 1}} {
		if got, err := driverConns(&planeSpec{Cells: c.cells, Conns: c.conns}, c.nproc); err != nil || got != c.want {
			t.Errorf("driverConns(conns %d, cells %d, nproc %d) = %d, %v; want %d", c.conns, c.cells, c.nproc, got, err, c.want)
		}
	}
	if code := run([]string{"-workload", "no_such_workload"}); code != 2 {
		t.Errorf("unknown workload exited %d, want 2", code)
	}
}
