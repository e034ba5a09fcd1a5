// Command flarevet is the project's multichecker: it runs the
// internal/lint analyzer suite — lockorder and the directive audit —
// over the packages matching its arguments and exits non-zero if any
// invariant is violated.
//
// Usage:
//
//	flarevet                         # whole module (./...)
//	flarevet ./internal/oneapi/...   # any go-list package patterns
//	flarevet -json ./...             # findings as a JSON array on stdout
//	flarevet -help-analyzers         # analyzer documentation
//
// Both analyzers run on every package. Each package is analyzed on its
// own, so a narrow pattern reports exactly what the whole-module run
// reports for the same packages, stale waivers included (narrow runs
// type-check the in-module dependency closure too, but report only the
// requested packages). Findings are suppressed only by
// //flare:allow <reason> directives (see internal/lint).
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

	var diags []lint.Diagnostic
	for _, pkg := range pkgs {
		if pkg.Target {
			diags = append(diags, lint.Run(pkg, lint.Analyzers())...)
		}
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
	fmt.Fprintf(os.Stderr, "(default ./...), one package at a time. Narrow patterns type-check the\n")
	fmt.Fprintf(os.Stderr, "in-module dependency closure but report only the requested packages.\n\n")
	flag.PrintDefaults()
	fmt.Fprintf(os.Stderr, "\nRun with -help-analyzers for what each analyzer enforces.\n")
}
