// Command flarebench regenerates every table and figure in the paper's
// evaluation (Tables I-II, Figures 4-12) and the extension experiments.
//
// Usage:
//
//	flarebench [-scale quick|full] [-factor F] [-runs N] [-only id,...] [-out dir]
//	           [-plot] [-cpuprofile cpu.prof] [-memprofile mem.prof]
//	flarebench -list
//
// Text tables are printed to stdout; per-figure plot data (CSV) and the
// text views are written under -out (default ./results). Performance is
// measured by the perf ledger (`go run -C bench .`, bench/README.md),
// not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/flare-sim/flare/internal/buildinfo"
	"github.com/flare-sim/flare/internal/experiments"
	"github.com/flare-sim/flare/internal/metrics"
	"github.com/flare-sim/flare/internal/profiling"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		scaleName  = flag.String("scale", "quick", `experiment scale: "quick" or "full" (paper durations, 20 runs)`)
		factor     = flag.Float64("factor", 0, "override duration factor (1 = paper scale)")
		runs       = flag.Int("runs", 0, "override runs per data point")
		only       = flag.String("only", "", "comma-separated experiment IDs (default: all)")
		outDir     = flag.String("out", "results", "output directory for tables and CSV series")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		plot       = flag.Bool("plot", false, "render ASCII plots of each experiment's series")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "flarebench")
		return 0
	}

	stopCPU, err := profiling.StartCPU(*cpuprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flarebench: %v\n", err)
		return 1
	}
	defer func() {
		stopCPU()
		if err := profiling.WriteHeap(*memprofile); err != nil {
			fmt.Fprintf(os.Stderr, "flarebench: %v\n", err)
		}
	}()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.Quick()
	case "full":
		scale = experiments.Full()
	default:
		fmt.Fprintf(os.Stderr, "flarebench: unknown scale %q\n", *scaleName)
		return 2
	}
	if *factor > 0 {
		scale.DurationFactor = *factor
	}
	if *runs > 0 {
		scale.Runs = *runs
	}

	selected := experiments.All()
	if *only != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*only, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintf(os.Stderr, "flarebench: %v\n", err)
				return 2
			}
			selected = append(selected, e)
		}
	}

	failed := 0
	for _, e := range selected {
		start := time.Now()
		fmt.Printf("--- running %s (%s) ...\n", e.ID, e.Title)
		rep, err := e.Run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flarebench: %s: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Print(rep.String())
		if *plot && len(rep.Series) > 0 {
			fmt.Println(metrics.AsciiPlot(72, 18, rep.Series...))
		}
		fmt.Printf("--- %s done in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if err := rep.WriteFiles(*outDir); err != nil {
			fmt.Fprintf(os.Stderr, "flarebench: %s: %v\n", e.ID, err)
			failed++
		}
	}
	if failed > 0 {
		return 1
	}
	fmt.Printf("wrote results to %s\n", *outDir)
	return 0
}
