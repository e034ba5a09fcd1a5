package flaresuite

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"github.com/flare-sim/flare/internal/buildinfo"
	"github.com/flare-sim/flare/internal/metrics"
	"github.com/flare-sim/flare/internal/sim"
)

// SummarySchema versions the summary.json format.
const SummarySchema = "flaresuite-summary/3"

// Scenario statuses in summary.json.
const (
	StatusPass        = "pass"
	StatusFail        = "fail"
	StatusSkip        = "skip"        // never started (interrupted run)
	StatusInterrupted = "interrupted" // started, cut short by the drain
)

// Options configures one matrix run.
type Options struct {
	// Scale names the sizing: "quick" (default) or "full".
	Scale string
	// Factor overrides the scale's duration factor when > 0.
	Factor float64
	// Runs overrides the scale's repetition count when > 0.
	Runs int
	// OutDir, when set, receives per-scenario artifact directories plus
	// summary.json; empty runs artifact-free.
	OutDir string
	// Expand runs every spec's full matrix cross-product instead of
	// only its base point.
	Expand bool
	// Names, when non-empty, restricts the run to these spec names
	// (unknown names are errors).
	Names []string
	// AxisFilter, when non-empty, keeps only instances whose applied
	// axes match every key=value pair.
	AxisFilter map[string]string
}

// ScenarioSummary is one scenario's machine-readable outcome.
type ScenarioSummary struct {
	Name      string             `json:"name"`
	Axes      map[string]string  `json:"axes"`
	Status    string             `json:"status"`
	Failures  []string           `json:"failures,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
	Artifacts []string           `json:"artifacts,omitempty"`
}

// Summary is a whole run's machine-readable outcome and its stamp: the
// build that ran it (buildinfo.Version: a built binary's commit, "devel"
// under `go run`) and the scale name plus the duration factor and run
// count actually used, overrides applied. Its JSON encoding does not
// depend on the core count.
type Summary struct {
	Schema    string            `json:"schema"`
	Version   string            `json:"version"`
	Scale     string            `json:"scale"`
	Factor    float64           `json:"factor"`
	Runs      int               `json:"runs"`
	Passed    int               `json:"passed"`
	Failed    int               `json:"failed"`
	Skipped   int               `json:"skipped"`
	Scenarios []ScenarioSummary `json:"scenarios"`
}

// JSON renders the summary in its canonical byte form.
func (s *Summary) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("flaresuite: encode summary: %w", err)
	}
	return append(b, '\n'), nil
}

// Table renders the human summary table.
func (s *Summary) Table() string {
	tbl := metrics.NewTable(fmt.Sprintf("flaresuite summary (scale %s)", s.Scale),
		"status", "clients", "QoE", "rate Kbps", "stall s", "failures")
	for _, sc := range s.Scenarios {
		cell := func(name, format string) string {
			v, ok := sc.Metrics[name]
			if !ok {
				return "-"
			}
			return fmt.Sprintf(format, v)
		}
		tbl.AddRow(sc.Name, sc.Status,
			cell("clients", "%.0f"), cell("qoe_mean", "%.0f"),
			cell("rate_mean_kbps", "%.0f"), cell("stall_mean_s", "%.1f"),
			fmt.Sprintf("%d", len(sc.Failures)))
	}
	return tbl.String()
}

// Ok reports whether every scenario passed (skips count as not-ok:
// an interrupted matrix is not a green matrix).
func (s *Summary) Ok() bool { return s.Failed == 0 && s.Skipped == 0 }

// Expand validates every spec of the table (a safe, unique name, valid
// base axes, a matrix that expands), then resolves the specs through
// the options' name filter, matrix expansion, and axis filter, in table
// order.
func Expand(specs []ScenarioSpec, opts Options) ([]Instance, error) {
	byName := make(map[string]ScenarioSpec, len(specs))
	for _, s := range specs {
		if err := s.validate(); err != nil {
			return nil, err
		}
		if _, dup := byName[s.Name]; dup {
			return nil, fmt.Errorf("flaresuite: scenario %q listed twice", s.Name)
		}
		byName[s.Name] = s
	}
	if len(opts.Names) > 0 {
		picked := make([]ScenarioSpec, 0, len(opts.Names))
		for _, name := range opts.Names {
			s, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("flaresuite: unknown scenario %q", name)
			}
			picked = append(picked, s)
		}
		specs = picked
	}
	var out []Instance
	for _, s := range specs {
		insts, err := s.Instances(opts.Expand)
		if err != nil {
			return nil, err
		}
		for _, inst := range insts {
			if matchesAxes(inst.Axes, opts.AxisFilter) {
				out = append(out, inst)
			}
		}
	}
	return out, nil
}

func matchesAxes(a Axes, filter map[string]string) bool {
	if len(filter) == 0 {
		return true
	}
	m := a.Map()
	for k, v := range filter {
		if m[k] != v {
			return false
		}
	}
	return true
}

// resolveScale applies the options' overrides to the named scale.
func resolveScale(opts Options) (Scale, error) {
	scale, ok := ParseScale(opts.Scale)
	if !ok {
		return Scale{}, fmt.Errorf("flaresuite: unknown scale %q (quick or full)", opts.Scale)
	}
	if opts.Factor > 0 {
		scale.DurationFactor = opts.Factor
	}
	if opts.Runs > 0 {
		scale.Runs = opts.Runs
	}
	return scale, nil
}

// Run expands the table through opts and executes every instance in
// sequence; within an instance, each point's seeded runs share one
// GOMAXPROCS-wide worker pool. Completed scenarios flush their
// artifacts as they finish; when ctx is cancelled (the graceful drain)
// instances not yet started are marked skipped, the in-flight one
// finishes or reports interrupted, and the summary — covering
// everything that did complete — is still written.
func Run(ctx context.Context, specs []ScenarioSpec, opts Options) (*Summary, error) {
	scale, err := resolveScale(opts)
	if err != nil {
		return nil, err
	}
	instances, err := Expand(specs, opts)
	if err != nil {
		return nil, err
	}
	if len(instances) == 0 {
		return nil, fmt.Errorf("flaresuite: no scenarios selected")
	}
	if opts.OutDir != "" {
		if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
			return nil, fmt.Errorf("flaresuite: create %s: %w", opts.OutDir, err)
		}
	}

	scaleName := opts.Scale
	if scaleName == "" {
		scaleName = "quick"
	}
	sum := &Summary{
		Schema:    SummarySchema,
		Version:   buildinfo.Version(),
		Scale:     scaleName,
		Factor:    scale.DurationFactor,
		Runs:      scale.Runs,
		Scenarios: make([]ScenarioSummary, len(instances)),
	}
	pool := sim.NewWorkerPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	for i, inst := range instances {
		sc := runInstance(ctx, inst, scale, opts.OutDir, pool)
		sum.Scenarios[i] = sc
		switch sc.Status {
		case StatusPass:
			sum.Passed++
		case StatusSkip:
			sum.Skipped++
		default:
			sum.Failed++
		}
	}
	if opts.OutDir != "" {
		b, err := sum.JSON()
		if err != nil {
			return nil, err
		}
		path := filepath.Join(opts.OutDir, "summary.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return nil, fmt.Errorf("flaresuite: write %s: %w", path, err)
		}
	}
	return sum, nil
}

// runInstance executes one scenario instance, converting Fatalf unwinds
// and body panics (a nil Run among them) into failures instead of
// crashing the matrix.
func runInstance(ctx context.Context, inst Instance, scale Scale, outRoot string, pool *sim.WorkerPool) ScenarioSummary {
	t := &T{
		name:  inst.Name,
		axes:  inst.Axes,
		scale: scale,
		ctx:   ctx,
		pool:  pool,
	}
	if ctx.Err() != nil {
		// The drain began before this slot started: skip, don't run.
		return t.finish(StatusSkip)
	}
	if outRoot != "" {
		dir := filepath.Join(outRoot, inst.Name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Errorf("create artifact dir: %v", err)
			return t.finish(StatusFail)
		}
		t.outDir = dir
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, expected := r.(failNow); !expected {
					t.failed = true
					t.failures = append(t.failures, fmt.Sprintf("panic: %v\n%s", r, debug.Stack()))
				}
			}
		}()
		inst.Spec.Run(t)
	}()
	switch {
	case t.failed && ctx.Err() != nil:
		return t.finish(StatusInterrupted)
	case t.failed:
		return t.finish(StatusFail)
	}
	return t.finish(StatusPass)
}
