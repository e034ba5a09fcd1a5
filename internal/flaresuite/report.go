package flaresuite

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/flare-sim/flare/internal/metrics"
)

// Report is one paper artefact's renderable outcome: the report specs
// (Tables I-II, Figures 4-12, the ext-* extensions) each build one, and
// its text view plus CSV series are the results/ file format.
type Report struct {
	// ID is the report spec's name (e.g. "table1", "fig6").
	ID string
	// Title describes the paper artefact reproduced.
	Title string
	// Tables are text tables (Tables I/II style).
	Tables []*metrics.Table
	// Series are plottable figure data (CDFs, time series, sweeps).
	Series []metrics.Series
	// Notes carry headline numbers and observations for EXPERIMENTS.md.
	Notes []string
}

// Notef appends a formatted note.
func (r *Report) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as text.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if len(r.Series) > 0 {
		fmt.Fprintf(&b, "(%d plot series; write with -out)\n", len(r.Series))
	}
	return b.String()
}

// WriteFiles stores the report under dir: <id>.txt for the text view and
// <id>.csv for the plot series (when any).
func (r *Report) WriteFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("flaresuite: create %s: %w", dir, err)
	}
	txt := filepath.Join(dir, r.ID+".txt")
	if err := os.WriteFile(txt, []byte(r.String()), 0o644); err != nil {
		return fmt.Errorf("flaresuite: write %s: %w", txt, err)
	}
	if len(r.Series) > 0 {
		csvPath := filepath.Join(dir, r.ID+".csv")
		f, err := os.Create(csvPath)
		if err != nil {
			return fmt.Errorf("flaresuite: create %s: %w", csvPath, err)
		}
		defer f.Close()
		if err := metrics.WriteSeriesCSV(f, r.Series...); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("flaresuite: close %s: %w", csvPath, err)
		}
	}
	return nil
}
