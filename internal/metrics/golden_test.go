package metrics

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// -update regenerates the renderer goldens:
//
//	go test ./internal/metrics -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// goldenSeries builds the deterministic fixtures shared by every
// renderer golden: a CDF of a small fixed sample and a coarse sine
// sweep, shaped like the solver-latency and rate-over-time figures.
func goldenSeries() []Series {
	cdf := NewCDF([]float64{0.2, 0.4, 0.4, 0.9, 1.3, 1.7, 2.1, 2.1, 3.5, 4.0})
	ts := &TimeSeries{}
	for i := 0; i < 24; i++ {
		t := float64(i) * 5
		ts.Add(t, 1200+400*math.Sin(float64(i)/3))
	}
	return []Series{
		SeriesFromCDF("solve ms", cdf, 8),
		SeriesFromTimeSeries("rate kbps", ts, 12),
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\n-- got --\n%s\n-- want --\n%s", name, got, want)
	}
}

func TestWriteSeriesCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, goldenSeries()...); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "series.csv.golden", buf.Bytes())
}

func TestTableGolden(t *testing.T) {
	tbl := NewTable("Table I: mean bitrate (Kbps)", "FLARE", "FESTIVE", "Google")
	tbl.AddRow("static", "1412", "1187", "1254")
	tbl.AddFloatRow("mobility", "%.1f", 1210.4, 988.7, 1003.2)
	tbl.AddRow("cyclic", "1108") // short row: missing cells render empty
	checkGolden(t, "table.txt.golden", []byte(tbl.String()))
}
