package flaresuite

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"sort"

	"github.com/flare-sim/flare/internal/cellsim"
	"github.com/flare-sim/flare/internal/metrics"
	"github.com/flare-sim/flare/internal/obs"
	"github.com/flare-sim/flare/internal/sim"
)

// ScenarioSpec is one declarative scenario: a name, one point in the
// axis space, an optional matrix of axis sweeps, and a body.
type ScenarioSpec struct {
	// Name identifies the scenario (table key, CLI filter token,
	// artifact directory name).
	Name string
	// Description is the one-line intent shown by `flaresuite list`.
	Description string
	// Axes is the scenario's base point.
	Axes Axes
	// Matrix optionally sweeps axes; `flaresuite run -matrix` expands
	// the cross-product into one instance per point.
	Matrix Matrix
	// Run is the scenario body.
	Run func(t *T)
}

// scenarioName constrains spec names to safe artifact-directory and
// filter tokens.
var scenarioName = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]*$`)

// validate checks what Expand requires of every spec in a table: a
// safe name, valid base axes, and a matrix that expands over them.
func (s ScenarioSpec) validate() error {
	if !scenarioName.MatchString(s.Name) {
		return fmt.Errorf("flaresuite: invalid scenario name %q", s.Name)
	}
	if err := s.Axes.Validate(); err != nil {
		return fmt.Errorf("flaresuite: scenario %q: %w", s.Name, err)
	}
	if _, _, err := s.Matrix.expand(s.Axes.withDefaults()); err != nil {
		return fmt.Errorf("flaresuite: scenario %q: %w", s.Name, err)
	}
	return nil
}

// Instance is one runnable point of a spec: the spec itself with its
// matrix coordinates applied.
type Instance struct {
	Spec ScenarioSpec
	// Name is the spec name plus the matrix point suffix
	// ("het-ladders@ladder=fine"); equal to Spec.Name off-matrix.
	Name string
	// Axes is the fully-applied point.
	Axes Axes
}

// Instances expands the spec: the base point alone when expand is
// false, the full matrix cross-product when true.
func (s ScenarioSpec) Instances(expand bool) ([]Instance, error) {
	base := s.Axes.withDefaults()
	if !expand || len(s.Matrix) == 0 {
		return []Instance{{Spec: s, Name: s.Name, Axes: base}}, nil
	}
	points, labels, err := s.Matrix.expand(base)
	if err != nil {
		return nil, fmt.Errorf("flaresuite: scenario %q: %w", s.Name, err)
	}
	out := make([]Instance, len(points))
	for i := range points {
		name := s.Name
		if labels[i] != "" {
			name += "@" + labels[i]
		}
		out[i] = Instance{Spec: s, Name: name, Axes: points[i]}
	}
	return out, nil
}

// failNow is the Fatalf unwind sentinel, recovered by the runner.
type failNow struct{}

// T is a running scenario, handed to spec bodies — a testing.T-shaped
// surface (Fatalf/Errorf/Assert*) plus the harness hooks: the compiled
// axes, seeded engine runs, per-scenario artifacts, and the metrics and
// report notes that land in summary.json.
type T struct {
	name  string
	axes  Axes
	scale Scale
	ctx   context.Context
	pool  *sim.WorkerPool // the run's worker pool, shared by every point

	outDir string // per-scenario artifact directory; "" disables artifacts

	failed    bool
	failures  []string
	notes     []string
	metricsM  map[string]float64
	artifacts []string
}

// Axes returns the instance's fully-applied axis point.
func (t *T) Axes() Axes { return t.axes }

// Errorf records a failure and keeps the body running.
func (t *T) Errorf(format string, args ...any) {
	t.failed = true
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
}

// Fatalf records a failure and stops the body immediately.
func (t *T) Fatalf(format string, args ...any) {
	t.Errorf(format, args...)
	t.FailNow()
}

// FailNow stops the body immediately (the runner recovers the unwind).
func (t *T) FailNow() {
	t.failed = true
	panic(failNow{})
}

// AssertTrue records a failure unless cond holds.
func (t *T) AssertTrue(cond bool, format string, args ...any) {
	if !cond {
		t.Errorf(format, args...)
	}
}

// AssertInRange records a failure unless lo <= v <= hi.
func (t *T) AssertInRange(what string, v, lo, hi float64) {
	if v < lo || v > hi {
		t.Errorf("%s = %v, want within [%v, %v]", what, v, lo, hi)
	}
}

// Metric records one named number into summary.json.
func (t *T) Metric(name string, v float64) {
	if t.metricsM == nil {
		t.metricsM = make(map[string]float64)
	}
	t.metricsM[name] = v
}

// build compiles an axis point into one cell's configuration at the
// run's scale, failing the scenario on an invalid point. Seed is left
// zero; the run loop assigns it.
func (t *T) build(a Axes) cellsim.Config {
	cfg, err := BuildConfig(a, t.scale)
	if err != nil {
		t.Fatalf("%v", err)
	}
	return cfg
}

// MustRunPoint executes the instance's point: the scale's Runs seeded
// repetitions of Axes().Cells independent cells each, returned
// run-major. The (run 0, cell 0) execution records a JSONL telemetry
// trace into the scenario's artifact directory when one is attached —
// recording is proven not to perturb results, so traced and untraced
// runs report identical outcomes. Any failure fails the scenario.
func (t *T) MustRunPoint() []*cellsim.Result {
	cfg := t.build(t.axes)
	trace := ""
	if t.outDir != "" {
		trace = filepath.Join(t.outDir, "trace.jsonl")
		t.artifact("trace.jsonl")
	}
	return t.runSeeded(cfg, t.scale.normalized().Runs, t.axes.withDefaults().Cells, trace)
}

// runs executes cfg at the scale's seeded repetitions (one cell each)
// and returns the results in run order.
func (t *T) runs(cfg cellsim.Config) []*cellsim.Result {
	return t.runSeeded(cfg, t.scale.normalized().Runs, 1, "")
}

// runSeeded is the one seeded-run loop: runs x cells copies of cfg, the
// copy at (run, cell) seeded runSeed(run, cell), fanned out across the
// worker pool and returned run-major. The first failure cancels the
// copies still in flight and fails the scenario; a panicking copy
// becomes that copy's error. A non-empty trace path records (run 0,
// cell 0) as JSONL telemetry.
func (t *T) runSeeded(cfg cellsim.Config, runs, cells int, trace string) []*cellsim.Result {
	ctx, cancel := context.WithCancel(t.ctx)
	defer cancel()
	n := runs * cells
	s := &seededRuns{ctx: ctx, cancel: cancel, cfg: cfg, cells: cells, trace: trace,
		results: make([]*cellsim.Result, n), errs: make([]error, n)}
	t.pool.Do(n, s)
	// Report the first real failure; cancellations are its fallout.
	var cancelled error
	for i, err := range s.errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled):
			if cancelled == nil {
				cancelled = fmt.Errorf("run %d cell %d: %w", i/cells, i%cells, err)
			}
		default:
			t.Fatalf("run %d cell %d: %v", i/cells, i%cells, err)
		}
	}
	if cancelled != nil {
		t.Fatalf("%v", cancelled)
	}
	return s.results
}

// seededRuns adapts runSeeded to sim.WorkerPool: each worker owns a
// contiguous index range and writes only its own slots, so the results
// are in index order by construction.
type seededRuns struct {
	ctx     context.Context
	cancel  context.CancelFunc
	cfg     cellsim.Config
	cells   int
	trace   string
	results []*cellsim.Result
	errs    []error
}

// RunRange implements sim.RangeRunner.
func (s *seededRuns) RunRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		if s.errs[i] = s.run(i); s.errs[i] != nil {
			s.cancel()
		}
	}
}

func (s *seededRuns) run(i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	if err := s.ctx.Err(); err != nil {
		return err
	}
	c := s.cfg
	c.Seed = runSeed(i/s.cells, i%s.cells)
	if i == 0 && s.trace != "" {
		var sink *obs.JSONLSink
		if sink, err = obs.CreateJSONLFile(s.trace); err != nil {
			return err
		}
		c.Obs = obs.New(obs.Options{Sinks: []obs.Sink{sink}})
		defer func() {
			if cerr := c.Obs.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}
	s.results[i], err = cellsim.RunContext(s.ctx, c)
	return err
}

// report attaches a built report: its notes join the summary and, with
// an artifact directory, it is written as <id>.txt plus <id>.csv (the
// results/ format).
func (t *T) report(rep *Report) *Report {
	t.notes = append(t.notes, rep.Notes...)
	if t.outDir != "" {
		if err := rep.WriteFiles(t.outDir); err != nil {
			t.Fatalf("%v", err)
		}
		t.artifact(rep.ID + ".txt")
		if len(rep.Series) > 0 {
			t.artifact(rep.ID + ".csv")
		}
	}
	return rep
}

// RecordStandard pools the standard per-client metrics across results
// into summary.json: mean QoE, mean encoding rate, mean stall seconds,
// Jain fairness of delivered throughput, and population counts.
func (t *T) RecordStandard(results []*cellsim.Result) {
	var qoes, rates, stalls, tputs []float64
	segments := 0
	for _, r := range results {
		for _, c := range r.Clients {
			qoes = append(qoes, c.QoEScore)
			rates = append(rates, c.AvgRateBps)
			stalls = append(stalls, c.StallSeconds)
			tputs = append(tputs, c.AvgTputBps)
			segments += c.Segments
		}
	}
	t.Metric("clients", float64(len(qoes)))
	t.Metric("segments", float64(segments))
	t.Metric("qoe_mean", metrics.Mean(qoes))
	t.Metric("rate_mean_kbps", metrics.Mean(rates)/1000)
	t.Metric("stall_mean_s", metrics.Mean(stalls))
	t.Metric("jain_tput", metrics.JainIndex(tputs))
}

// artifact records one relative artifact path for summary.json.
func (t *T) artifact(rel string) {
	t.artifacts = append(t.artifacts, rel)
}

// finish flushes the scenario's failures to its log artifact and
// returns the summary entry. Artifact paths are sorted for a stable
// summary.
func (t *T) finish(status string) ScenarioSummary {
	if t.outDir != "" && len(t.failures) > 0 {
		var b []byte
		for _, f := range t.failures {
			b = append(b, "FAIL: "...)
			b = append(b, f...)
			b = append(b, '\n')
		}
		if err := os.WriteFile(filepath.Join(t.outDir, "log.txt"), b, 0o644); err == nil {
			t.artifact("log.txt")
		}
	}
	sort.Strings(t.artifacts)
	return ScenarioSummary{
		Name:      t.name,
		Axes:      t.axes.Map(),
		Status:    status,
		Failures:  t.failures,
		Notes:     t.notes,
		Metrics:   t.metricsM,
		Artifacts: t.artifacts,
	}
}
