package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3}, 2},
		{[]float64{-1, 1}, 0},
	}
	for _, tc := range cases {
		if got := Mean(tc.xs); got != tc.want {
			t.Errorf("Mean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestStdev(t *testing.T) {
	if got := Stdev([]float64{2, 2, 2, 2}); got != 0 {
		t.Errorf("Stdev of constants = %v, want 0", got)
	}
	if got := Stdev([]float64{1, 3}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Stdev([1 3]) = %v, want 1", got)
	}
	if got := Stdev([]float64{7}); got != 0 {
		t.Errorf("Stdev of single sample = %v, want 0", got)
	}
}

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean([]float64{1, 2, 4}); !almostEqual(got, 12.0/7.0, 1e-12) {
		t.Errorf("HarmonicMean = %v, want %v", got, 12.0/7.0)
	}
	// Zeros are skipped rather than collapsing the estimate to zero.
	if got := HarmonicMean([]float64{0, 2, 2}); !almostEqual(got, 2, 1e-12) {
		t.Errorf("HarmonicMean with zero = %v, want 2", got)
	}
	if got := HarmonicMean(nil); got != 0 {
		t.Errorf("HarmonicMean(nil) = %v, want 0", got)
	}
}

func TestHarmonicMeanAtMostArithmetic(t *testing.T) {
	check := func(a, b, c uint16) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		return HarmonicMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{3, 3, 3}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("JainIndex equal = %v, want 1", got)
	}
	// One flow hogging everything: J = 1/n.
	if got := JainIndex([]float64{10, 0, 0, 0}); !almostEqual(got, 0.25, 1e-12) {
		t.Errorf("JainIndex hog = %v, want 0.25", got)
	}
	if got := JainIndex(nil); got != 0 {
		t.Errorf("JainIndex(nil) = %v, want 0", got)
	}
}

func TestJainIndexBoundsProperty(t *testing.T) {
	check := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		xs := make([]float64, len(vals))
		anyPositive := false
		for i, v := range vals {
			xs[i] = float64(v)
			if v > 0 {
				anyPositive = true
			}
		}
		j := JainIndex(xs)
		if !anyPositive {
			return j == 0
		}
		lower := 1/float64(len(xs)) - 1e-9
		return j >= lower && j <= 1+1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountChanges(t *testing.T) {
	cases := []struct {
		xs   []float64
		want int
	}{
		{nil, 0},
		{[]float64{1}, 0},
		{[]float64{1, 1, 1}, 0},
		{[]float64{1, 2, 1}, 2},
		{[]float64{1, 2, 2, 3}, 2},
	}
	for _, tc := range cases {
		if got := CountChanges(tc.xs); got != tc.want {
			t.Errorf("CountChanges(%v) = %d, want %d", tc.xs, got, tc.want)
		}
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{4, 1, 3, 2})
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	if got := c.At(2); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("At(2) = %v, want 0.5", got)
	}
	if got := c.At(0.5); got != 0 {
		t.Errorf("At(0.5) = %v, want 0", got)
	}
	if got := c.At(10); got != 1 {
		t.Errorf("At(10) = %v, want 1", got)
	}
	if c.Min() != 1 || c.Max() != 4 {
		t.Errorf("Min/Max = %v/%v", c.Min(), c.Max())
	}
	if got := c.Mean(); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Mean = %v", got)
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	if got := c.Quantile(0.5); got != 50 {
		t.Errorf("median = %v, want 50", got)
	}
	if got := c.Quantile(0); got != 10 {
		t.Errorf("q0 = %v, want 10", got)
	}
	if got := c.Quantile(1); got != 100 {
		t.Errorf("q1 = %v, want 100", got)
	}
	if got := c.Quantile(0.91); got != 100 {
		t.Errorf("q0.91 = %v, want 100", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(5) != 0 || c.Quantile(0.5) != 0 || c.Min() != 0 || c.Max() != 0 {
		t.Fatal("empty CDF should return zeros")
	}
	if pts := c.Points(10); pts != nil {
		t.Fatalf("empty CDF Points = %v", pts)
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	check := func(vals []int16, a, b int16) bool {
		if len(vals) == 0 {
			return true
		}
		xs := make([]float64, len(vals))
		for i, v := range vals {
			xs[i] = float64(v)
		}
		c := NewCDF(xs)
		lo, hi := float64(a), float64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		return c.At(lo) <= c.At(hi)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFPointsCoverFullRange(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i)
	}
	c := NewCDF(samples)
	pts := c.Points(10)
	if len(pts) != 10 {
		t.Fatalf("got %d points, want 10", len(pts))
	}
	last := pts[len(pts)-1]
	if last.Y != 1 {
		t.Errorf("last point Y = %v, want 1", last.Y)
	}
	if last.X != 99 {
		t.Errorf("last point X = %v, want 99", last.X)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y <= pts[i-1].Y {
			t.Fatalf("points not monotone: %v", pts)
		}
	}
}

func TestCDFDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	c := NewCDF(in)
	in[0] = 100
	if c.Max() != 3 {
		t.Fatal("CDF aliased caller slice")
	}
}

func TestTimeSeries(t *testing.T) {
	var ts TimeSeries
	for i := 0; i < 10; i++ {
		ts.Add(float64(i), float64(i*2))
	}
	if ts.Len() != 10 {
		t.Fatalf("Len = %d", ts.Len())
	}
	if got := ts.MeanValue(); got != 9 {
		t.Errorf("MeanValue = %v, want 9", got)
	}
	vs := ts.Values()
	if len(vs) != 10 || vs[3] != 6 {
		t.Errorf("Values = %v", vs)
	}
}

func TestTimeSeriesDownsample(t *testing.T) {
	var ts TimeSeries
	for i := 0; i < 100; i++ {
		ts.Add(float64(i), 1)
	}
	d := ts.Downsample(10)
	if d.Len() != 10 {
		t.Fatalf("Downsample produced %d points", d.Len())
	}
	for _, p := range d.Points() {
		if p.Y != 1 {
			t.Fatalf("bucket mean distorted constant series: %v", p)
		}
	}
	// Downsampling to a larger size copies, not aliases.
	d2 := ts.Downsample(1000)
	if d2.Len() != 100 {
		t.Fatalf("no-op downsample length = %d", d2.Len())
	}
	d2.Add(200, 5)
	if ts.Len() != 100 {
		t.Fatal("downsample aliased original")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Summary", "FESTIVE", "GOOGLE", "FLARE")
	tb.AddRow("Average video rate (Kbps)", "638", "1151", "726")
	tb.AddFloatRow("Jain's fairness index", "%.3f", 0.998, 0.990, 0.999)
	out := tb.String()
	if !strings.Contains(out, "Summary") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "FESTIVE") || !strings.Contains(out, "0.999") {
		t.Errorf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	var sb strings.Builder
	s := Series{Name: "flare", Points: []Point{{X: 1, Y: 0.5}, {X: 2, Y: 1}}}
	if err := WriteSeriesCSV(&sb, s); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	want := "series,x,y\nflare,1,0.5\nflare,2,1\n"
	if out != want {
		t.Errorf("csv = %q, want %q", out, want)
	}
}

func TestSeriesFromCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	s := SeriesFromCDF("x", c, 4)
	if s.Name != "x" || len(s.Points) != 4 {
		t.Fatalf("series = %+v", s)
	}
}

func TestFormatKbps(t *testing.T) {
	if got := FormatKbps(2512_000); got != "2512 Kbps" {
		t.Errorf("FormatKbps = %q", got)
	}
}
