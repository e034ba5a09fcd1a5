// Command flarevet is the project's multichecker: it runs the
// internal/lint analyzer suite — determinism, seedpurity, layering,
// obsdiscipline, lockorder, and the directive audit — over the packages
// matching its arguments and exits non-zero if any invariant is
// violated.
//
// Usage:
//
//	flarevet                         # whole module (./...)
//	flarevet ./internal/oneapi/...   # any go-list package patterns
//	flarevet -json ./...             # findings as a JSON array on stdout
//	flarevet -help-analyzers         # analyzer documentation
//
// Analyzer applicability is governed by the declarative ruleset in
// internal/lint/rules.go: determinism and seedpurity run only inside
// the sim-clock domain; the other four run everywhere. The whole run is
// one fact-store session: packages are analyzed in dependency order so
// seedpurity's seed-sink facts and waivers flow from callees to
// callers. For narrow patterns the in-module
// dependency closure is analyzed too, but findings are printed only
// for the requested packages; the stale-waiver audit runs only on
// whole-module invocations, where every directive is in view. Findings
// are suppressed only by //flare:allow <reason> directives (see
// internal/lint).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/flare-sim/flare/internal/buildinfo"
	"github.com/flare-sim/flare/internal/lint"
)

func main() {
	showVersion := flag.Bool("version", false, "print version and exit")
	showDocs := flag.Bool("help-analyzers", false, "print analyzer documentation and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Usage = usage
	flag.Parse()
	if *showVersion {
		buildinfo.Print(os.Stdout, "flarevet")
		return
	}
	if *showDocs {
		fmt.Print(lint.AnalyzerHelp())
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.LoadPackages(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flarevet:", err)
		os.Exit(2)
	}

	// One fact-store session over the dependency-ordered package list:
	// callee facts and waivers are in the store before callers run.
	store := lint.NewFactStore()
	var diags []lint.Diagnostic
	allTargets := true
	for _, pkg := range pkgs {
		ds := lint.RunWithFacts(pkg, lint.AnalyzersFor(pkg.Path), store)
		if pkg.Target {
			diags = append(diags, ds...)
		} else {
			allTargets = false
		}
	}
	// The stale-waiver audit needs every directive's consumers in view;
	// a narrow run that skipped sibling packages would cry wolf.
	if allTargets {
		diags = append(diags, store.StaleWaivers()...)
	}
	lint.SortDiagnostics(diags)

	if *asJSON {
		printJSON(diags)
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "flarevet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// jsonFinding is the -json wire shape; file is working-directory
// relative when possible so CI annotations resolve in-repo paths.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func printJSON(diags []lint.Diagnostic) {
	out := make([]jsonFinding, 0, len(diags))
	cwd, _ := os.Getwd()
	for _, d := range diags {
		file := d.Pos.Filename
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, file); err == nil && filepath.IsLocal(rel) {
				file = rel
			}
		}
		out = append(out, jsonFinding{
			File:     file,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "flarevet:", err)
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: flarevet [flags] [packages]\n\n")
	fmt.Fprintf(os.Stderr, "Runs the FLARE invariant analyzers over the given package patterns\n")
	fmt.Fprintf(os.Stderr, "(default ./...). Narrow patterns analyze the in-module dependency\n")
	fmt.Fprintf(os.Stderr, "closure for cross-package facts but report findings only for the\n")
	fmt.Fprintf(os.Stderr, "requested packages.\n\n")
	flag.PrintDefaults()
	fmt.Fprintf(os.Stderr, "\nRun with -help-analyzers for what each analyzer enforces.\n")
}
