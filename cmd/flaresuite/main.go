// Command flaresuite lists and runs the scenario table: the report
// specs that reproduce the paper's tables and figures (table1 ... fig12)
// and its extensions (ext-*), plus the matrix-native specs over the
// channel x churn x faults x mix x ladder axis space, expanded
// (-matrix) into cross-products. Scenarios run in sequence; each
// point's seeded runs are fanned out across cores.
//
// Usage:
//
//	flaresuite list [-matrix] [-axis key=value,...] [-v]
//	flaresuite run  [-scenario a,b] [-axis key=value,...] [-scale quick|full]
//	                [-factor F] [-runs N] [-matrix] [-out dir]
//	flaresuite -version
//
// `run` writes per-scenario artifact directories (JSONL traces, report
// tables/CSVs, logs) plus a machine-readable summary.json — stamped
// with the scale, duration factor and run count — under -out, and
// prints the summary table. SIGINT/SIGTERM drains gracefully: the
// in-flight scenario finishes and flushes its artifacts, unstarted ones
// are marked skipped, and summary.json is still written; a second
// signal kills the process.
//
// Examples:
//
//	flaresuite list -v
//	flaresuite run -scenario flash-crowd -scale quick -out suite-out
//	flaresuite run -matrix -axis mix=flare -scale quick -out suite-out
//	flaresuite run -scale full -scenario table1,fig6 -out results
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/flare-sim/flare/internal/buildinfo"
	"github.com/flare-sim/flare/internal/flaresuite"
	"github.com/flare-sim/flare/internal/graceful"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 && (args[0] == "-version" || args[0] == "--version") {
		buildinfo.Print(os.Stdout, "flaresuite")
		return 0
	}
	if len(args) == 0 {
		usage()
		return 2
	}
	switch args[0] {
	case "list":
		return runList(args[1:])
	case "run":
		return runRun(args[1:])
	case "help", "-h", "-help", "--help":
		usage()
		return 0
	default:
		fmt.Fprintf(os.Stderr, "flaresuite: unknown command %q\n", args[0])
		usage()
		return 2
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  flaresuite list [-matrix] [-axis key=value,...] [-v]
  flaresuite run  [-scenario a,b] [-axis key=value,...] [-scale quick|full]
                  [-factor F] [-runs N] [-matrix] [-out dir]
  flaresuite -version
`)
}

// parseAxisFilter parses "key=value,key=value".
func parseAxisFilter(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("flaresuite: bad -axis entry %q (want key=value)", kv)
		}
		// Validate against the axis taxonomy so a typo is an error,
		// not an empty filter result.
		var probe flaresuite.Axes
		if err := probe.Set(k, v); err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

func splitNames(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

func runList(args []string) int {
	fs := flag.NewFlagSet("flaresuite list", flag.ExitOnError)
	var (
		matrix  = fs.Bool("matrix", false, "list every matrix point instead of one line per spec")
		axis    = fs.String("axis", "", "filter by axis values (key=value,...)")
		verbose = fs.Bool("v", false, "show descriptions and applied axes")
	)
	fs.Parse(args)

	filter, err := parseAxisFilter(*axis)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}
	instances, err := flaresuite.Expand(flaresuite.Scenarios(), flaresuite.Options{
		Expand: *matrix, AxisFilter: filter, Names: splitNames(fs.Arg(0)),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}
	for _, inst := range instances {
		if !*verbose {
			fmt.Println(inst.Name)
			continue
		}
		fmt.Printf("%-40s %s\n", inst.Name, inst.Spec.Description)
		fmt.Printf("%-40s axes: %s", "", formatAxes(inst.Axes))
		if !*matrix && inst.Spec.Matrix.Size() > 1 {
			fmt.Printf("  (matrix: %d points)", inst.Spec.Matrix.Size())
		}
		fmt.Println()
	}
	return 0
}

func formatAxes(a flaresuite.Axes) string {
	m := a.Map()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + m[k]
	}
	return strings.Join(parts, " ")
}

func runRun(args []string) int {
	fs := flag.NewFlagSet("flaresuite run", flag.ExitOnError)
	var (
		scenario = fs.String("scenario", "", "run only these specs (comma-separated names)")
		axis     = fs.String("axis", "", "run only instances matching these axis values (key=value,...)")
		scale    = fs.String("scale", "quick", `scenario scale: "quick" or "full"`)
		factor   = fs.Float64("factor", 0, "override the scale's duration factor (1 = paper scale)")
		runs     = fs.Int("runs", 0, "override the scale's seeded repetitions per scenario")
		matrix   = fs.Bool("matrix", false, "expand every spec's matrix cross-product")
		out      = fs.String("out", "", "artifact directory (per-scenario traces/reports + summary.json)")
	)
	fs.Parse(args)

	filter, err := parseAxisFilter(*axis)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}
	opts := flaresuite.Options{
		Scale:      *scale,
		Factor:     *factor,
		Runs:       *runs,
		OutDir:     *out,
		Expand:     *matrix,
		Names:      splitNames(*scenario),
		AxisFilter: filter,
	}

	ctx := graceful.NotifyContext(context.Background())
	sum, err := flaresuite.Run(ctx, flaresuite.Scenarios(), opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 1
	}
	fmt.Print(sum.Table())
	fmt.Printf("%d passed, %d failed, %d skipped\n", sum.Passed, sum.Failed, sum.Skipped)
	for _, sc := range sum.Scenarios {
		for _, f := range sc.Failures {
			fmt.Printf("FAIL %s: %s\n", sc.Name, f)
		}
	}
	if *out != "" {
		fmt.Printf("artifacts: %s (summary.json + per-scenario directories)\n", *out)
	}
	if ctx.Err() != nil {
		fmt.Println("interrupted: completed scenarios flushed; unstarted ones skipped")
	}
	if !sum.Ok() {
		return 1
	}
	return 0
}
