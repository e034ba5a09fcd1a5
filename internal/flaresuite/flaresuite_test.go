package flaresuite_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/flare-sim/flare/internal/flaresuite"
)

// noopSpec returns a registrable spec with an empty body.
func noopSpec(name string) flaresuite.ScenarioSpec {
	return flaresuite.ScenarioSpec{Name: name, Run: func(t *flaresuite.T) {}}
}

// mustPanic runs fn and asserts it panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one containing %q", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v; want message containing %q", r, want)
		}
	}()
	fn()
}

// TestRegisterDuplicatePanics pins the database/sql-style registration
// contract: the second registration of a name is a programming error.
func TestRegisterDuplicatePanics(t *testing.T) {
	reg := flaresuite.NewRegistry()
	reg.Register(noopSpec("dup"))
	mustPanic(t, "registered twice", func() { reg.Register(noopSpec("dup")) })
}

// TestRegisterRejectsInvalidSpecs pins that bad names, bad axis values,
// and bad matrices all surface at registration time, not at run time.
func TestRegisterRejectsInvalidSpecs(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec flaresuite.ScenarioSpec
		want string
	}{
		{"bad name", flaresuite.ScenarioSpec{Name: "Bad Name"}, "invalid scenario name"},
		{"unknown channel", flaresuite.ScenarioSpec{
			Name: "s", Axes: flaresuite.Axes{Channel: "warp"},
		}, `unknown channel axis value "warp"`},
		{"faults without flare", flaresuite.ScenarioSpec{
			Name: "s", Axes: flaresuite.Axes{Faults: flaresuite.FaultLoss10, Mix: flaresuite.MixBBA},
		}, "needs a FLARE control plane"},
		{"empty matrix axis", flaresuite.ScenarioSpec{
			Name: "s", Matrix: flaresuite.Matrix{"mix": nil},
		}, "has no values"},
		{"unknown matrix value", flaresuite.ScenarioSpec{
			Name: "s", Matrix: flaresuite.Matrix{"mix": {"nope"}},
		}, `unknown mix axis value "nope"`},
		{"unknown matrix axis", flaresuite.ScenarioSpec{
			Name: "s", Matrix: flaresuite.Matrix{"bogus": {"x"}},
		}, `unknown axis "bogus"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := flaresuite.NewRegistry()
			mustPanic(t, tc.want, func() { reg.Register(tc.spec) })
		})
	}
}

// TestAxesUnknownValues pins the Validate/Set error paths the CLI and
// matrix expansion rely on.
func TestAxesUnknownValues(t *testing.T) {
	if err := (flaresuite.Axes{Churn: "tsunami"}).Validate(); err == nil ||
		!strings.Contains(err.Error(), `unknown churn axis value "tsunami"`) {
		t.Errorf("Validate: got %v, want unknown-churn error", err)
	}
	var a flaresuite.Axes
	if err := a.Set("ladder", "brass"); err == nil ||
		!strings.Contains(err.Error(), `unknown ladder axis value "brass"`) {
		t.Errorf("Set value: got %v, want unknown-ladder error", err)
	}
	if err := a.Set("warp", "9"); err == nil ||
		!strings.Contains(err.Error(), `unknown axis "warp"`) {
		t.Errorf("Set key: got %v, want unknown-axis error", err)
	}
	if err := a.Set("cells", "-1"); err == nil {
		t.Error("Set cells=-1: got nil, want error")
	}
	if err := a.Set("mix", flaresuite.MixMPC); err != nil {
		t.Errorf("Set mix=%s: %v", flaresuite.MixMPC, err)
	}
}

// TestMatrixExpansion pins the cross-product size, the deterministic
// sorted-key naming, and that off-matrix expansion yields the base point.
func TestMatrixExpansion(t *testing.T) {
	spec := flaresuite.ScenarioSpec{
		Name: "sweep",
		Matrix: flaresuite.Matrix{
			"mix":    {flaresuite.MixFLARE, flaresuite.MixFESTIVE},
			"ladder": {flaresuite.LadderSim, flaresuite.LadderTestbed, flaresuite.LadderFine},
		},
	}
	if got := spec.Matrix.Size(); got != 6 {
		t.Fatalf("Matrix.Size() = %d, want 6", got)
	}
	insts, err := spec.Instances(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 6 {
		t.Fatalf("Instances(true) = %d points, want 6", len(insts))
	}
	// Keys expand in sorted order (ladder before mix), values in
	// declared order; the first and last points pin both.
	if insts[0].Name != "sweep@ladder=sim,mix=flare" {
		t.Errorf("first point = %q", insts[0].Name)
	}
	if insts[5].Name != "sweep@ladder=fine,mix=festive" {
		t.Errorf("last point = %q", insts[5].Name)
	}
	if insts[5].Axes.Ladder != flaresuite.LadderFine || insts[5].Axes.Mix != flaresuite.MixFESTIVE {
		t.Errorf("last point axes = %+v", insts[5].Axes)
	}

	base, err := spec.Instances(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 1 || base[0].Name != "sweep" {
		t.Errorf("Instances(false) = %+v, want the single base point", base)
	}
}

// TestExpandFilters pins the runner-level selection: unknown names are
// errors, axis filters subset the expansion.
func TestExpandFilters(t *testing.T) {
	reg := flaresuite.NewRegistry()
	spec := noopSpec("sweep")
	spec.Matrix = flaresuite.Matrix{"mix": {flaresuite.MixFLARE, flaresuite.MixFESTIVE}}
	reg.Register(spec)

	if _, err := flaresuite.Expand(reg, flaresuite.Options{Names: []string{"nope"}}); err == nil ||
		!strings.Contains(err.Error(), `unknown scenario "nope"`) {
		t.Errorf("unknown name: got %v, want unknown-scenario error", err)
	}
	insts, err := flaresuite.Expand(reg, flaresuite.Options{
		Expand: true, AxisFilter: map[string]string{"mix": flaresuite.MixFESTIVE},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 1 || insts[0].Axes.Mix != flaresuite.MixFESTIVE {
		t.Errorf("axis filter kept %+v, want the single festive point", insts)
	}
}

// TestRunLockstepAcrossWorkers is the determinism gate for the
// run-level worker pool: the same selection of real scenarios, executed
// at GOMAXPROCS=1 (every run inline) and at GOMAXPROCS=4 (each point's
// runs split across four workers), must produce byte-identical summary
// JSON and report files — the fan-out may change wall-clock
// interleaving but never results or their order.
func TestRunLockstepAcrossWorkers(t *testing.T) {
	opts := flaresuite.Options{
		Scale:  "quick",
		Factor: 0.02,
		Runs:   2,
		Expand: true,
		Names:  []string{"table1", "ext-faults", "flash-crowd", "het-ladders", "churn-soak"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var out [][]byte
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		o := opts
		o.OutDir = t.TempDir()
		sum, err := flaresuite.Run(context.Background(), flaresuite.Default(), o)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if len(sum.Scenarios) != 9 {
			t.Fatalf("GOMAXPROCS=%d: %d instances, want 9", procs, len(sum.Scenarios))
		}
		for _, sc := range sum.Scenarios {
			if sc.Status != flaresuite.StatusPass {
				t.Fatalf("GOMAXPROCS=%d: %s %s: %v", procs, sc.Name, sc.Status, sc.Failures)
			}
		}
		if sum.Version == "" {
			t.Fatal("summary carries no build stamp")
		}
		sum.Version = "" // the build, not the run: not compared
		b, err := sum.JSON()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []string{"table1/table1.txt", "ext-faults/ext-faults.txt", "ext-faults/ext-faults.csv"} {
			rep, err := os.ReadFile(filepath.Join(o.OutDir, f))
			if err != nil {
				t.Fatal(err)
			}
			b = append(b, rep...)
		}
		out = append(out, b)
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Error("summary JSON or report bytes differ between GOMAXPROCS=1 and GOMAXPROCS=4")
	}
}

// TestRunCancelledContextSkips pins the drain contract: scenarios not
// yet started under a cancelled context are skipped (not failed, not
// run) and the summary still reports them — and a skipped matrix is
// not Ok.
func TestRunCancelledContextSkips(t *testing.T) {
	reg := flaresuite.NewRegistry()
	ran := false
	spec := noopSpec("never")
	spec.Run = func(*flaresuite.T) { ran = true }
	reg.Register(spec)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sum, err := flaresuite.Run(ctx, reg, flaresuite.Options{Scale: "quick"})
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("scenario body ran under a cancelled context")
	}
	if sum.Skipped != 1 || len(sum.Scenarios) != 1 || sum.Scenarios[0].Status != flaresuite.StatusSkip {
		t.Errorf("summary = %+v, want one skipped scenario", sum)
	}
	if sum.Ok() {
		t.Error("Ok() = true for a skipped matrix")
	}
}
